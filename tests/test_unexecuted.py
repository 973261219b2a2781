"""The ``make unexecuted`` allowlists cannot go stale.

Static, so it runs on every Python the suite does: each
``tests/unexecuted.py:ALLOWED`` key must name a function, method or class
defined under ``src/`` (read from the AST), each ``OPTIONS`` key an
optional parameter of a constructor under the measured packages, and each
must carry one of the fixed reasons.  Whether the listed code is still
never entered, and the listed options still single-valued, is what
``make unexecuted`` itself checks.
"""

from tests.unexecuted import (
    ALLOWED,
    OPTION_REASONS,
    OPTIONS,
    REASONS,
    constructors,
    definitions,
)


def test_every_allowlist_key_names_a_src_definition():
    names = set()
    for definition in definitions().values():
        path, _, qualname = definition.key.partition(":")
        names.add(definition.key)
        names.add(f"{path}:{qualname.split('.', 1)[0]}")
    assert sorted(set(ALLOWED) - names) == []


def test_every_allowlist_reason_is_from_the_vocabulary():
    assert {
        key: reason for key, reason in ALLOWED.items() if reason not in REASONS
    } == {}


def test_every_option_key_names_a_constructor_option():
    options = {
        f"{owner}.{name}"
        for owner, names in constructors().values()
        for name in names
    }
    assert sorted(set(OPTIONS) - options) == []


def test_every_option_reason_is_from_the_vocabulary():
    assert {
        key: reason for key, reason in OPTIONS.items()
        if reason not in OPTION_REASONS
    } == {}
