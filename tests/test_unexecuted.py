"""The ``make unexecuted`` allowlist cannot go stale.

Static, so it runs on every Python the suite does: each
``tests/unexecuted.py:ALLOWED`` key must name a function, method or class
defined under ``src/`` (read from the AST), and each must carry one of the
fixed reasons.  Whether the listed code is still never entered is what
``make unexecuted`` itself checks.
"""

from tests.unexecuted import ALLOWED, REASONS, definitions


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
