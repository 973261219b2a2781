"""What nothing the system runs ever enters: the check behind ``make unexecuted``.

    PYTHONPATH=src python -m tests.unexecuted

Records every code object entered, under ``sys.setprofile``, while four
things run in this interpreter:

- every experiment at ``--quick`` (``repro.experiments --all --quick``);
- the six examples, as scripts, with no command-line arguments;
- the five ``tests/frames.py`` workload shapes;
- ``perfbench`` at ``--scale 0.02`` on each workload, ``--trace 0`` and 1.

It then lists every function and method defined under ``src/`` that none
of them entered.  Dunders, lambdas and comprehensions are not counted, nor
are stubs whose body is only a docstring, ``...``, ``pass`` or ``raise``.
A definition nothing enters is deleted, or kept on :data:`ALLOWED` for one
of the :data:`REASONS`; the run prints the counts and exits 1 on any
definition that is neither, and on any allowlist entry that covers no
definition left unentered.

The same run records the values each optional parameter of an entered
``__init__`` under :data:`OPTION_DIRS` receives (the frame shapes aside:
their own profiler is installed then).  An option that only ever takes one
value is a constant, unless :data:`OPTIONS` keeps it for one of the
:data:`OPTION_REASONS`; the run prints ``N constructor options, M
single-valued, K allowlisted`` and exits 1 on a single-valued option that
is not allowlisted, and on an allowlist entry that names no single-valued
option.  About two minutes.
"""

from __future__ import annotations

import ast
import contextlib
import enum
import functools
import io
import os
import random
import runpy
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: why a definition nothing runs may stay in ``src/``
REASONS = {
    "fault": "a src caller on a fault, recovery or teardown path",
    "oracle": "a reference implementation tests compare src against",
    "registry": "a discipline make_discipline builds by name",
    "verdict": "a result predicate tests assert on real results",
}

_BASELINES = "src/repro/baselines/"
_CORE = "src/repro/core/"
_EXPERIMENTS = "src/repro/experiments/"
_TRANSPORT = "src/repro/transport/"

#: definitions kept though nothing the system runs enters them, by
#: ``path:qualname`` (or ``path:Class`` for all its methods)
ALLOWED: Dict[str, str] = {
    # registry: the Table 1 baselines make_discipline builds by name
    # (sqf, random_selection, address_hash, mppp, bonding), their receiver
    # halves, the srr/rr/grr names, the batch default the name-built
    # policies without their own inherit, and the port queue depths SQF
    # reads
    **{f"{_BASELINES}{key}": "registry" for key in (
        "address_hash.py:AddressHashing",
        "bonding.py:BondingFrame",
        "bonding.py:BondingMux",
        "bonding.py:BondingDemux",
        "bonding.py:BondingDiscipline",
        "bonding.py:BondingResequencer",
        "mppp.py:MpppFragment",
        "mppp.py:MpppDiscipline",
        "mppp.py:MpppReceiver",
        "random_selection.py:RandomSelection",
        "sqf.py:ShortestQueueFirst",
    )},
    **{f"{_TRANSPORT}discipline.py:_make_{name}": "registry" for name in (
        "srr", "rr", "grr", "sqf", "random", "hash", "mppp", "bonding",
    )},
    f"{_CORE}transform.py:LoadSharer.assign_many": "registry",
    f"{_CORE}striper.py:ListPort.queue_length": "registry",
    "src/repro/net/stripe.py:StripeMemberPort.queue_length": "registry",
    # oracle: the immutable (s0, f, g) SRR the kernel is checked against,
    # the non-causal DRR with the backlogged service order it runs in,
    # and the seeded random CFQ the transformation, kernel adapter and
    # receiver are checked with
    **{f"{_CORE}srr.py:SRR.{name}": "oracle" for name in (
        "initial_state", "select", "update", "advance", "cost",
        "next_number_for_channel",
    )},
    f"{_CORE}srr.py:DRR": "oracle",
    f"{_CORE}cfq.py:fq_service_order_noncausal": "oracle",
    f"{_CORE}schemes.py:_draw": "oracle",
    f"{_CORE}schemes.py:SeededRandomFQ": "oracle",
    # verdict: result predicates tests assert on real results
    "src/repro/analysis/reorder.py:ReorderReport.out_of_order_fraction":
        "verdict",
    "src/repro/analysis/reorder.py:ReorderReport.is_fifo": "verdict",
    f"{_CORE}fairness.py:srr_fairness_report": "verdict",
    f"{_EXPERIMENTS}cell_striping.py:CellStripingRow.damaged_fraction":
        "verdict",
    f"{_EXPERIMENTS}loss_recovery.py:LossRecoveryResult.all_recovered":
        "verdict",
    f"{_EXPERIMENTS}marker_frequency.py:"
    "MarkerFrequencyResult.is_monotone_enough": "verdict",
    f"{_EXPERIMENTS}marker_position.py:"
    "MarkerPositionResult.boundary_is_near_optimal": "verdict",
    f"{_EXPERIMENTS}scalability.py:ScalabilityResult.scaling_efficiency":
        "verdict",
    # fault: checkpoint capture and restore (with the WAL replay of fabric
    # drains), session reset, channel failure and revival, ARQ loss
    # recovery (the ack flow), injected loss and
    # corruption, damaged frames, and teardown
    **{f"{_CORE}{key}": "fault" for key in (
        "kernel.py:CFQKernelAdapter.snapshot",
        "kernel.py:CFQKernelAdapter.restore",
        "kernel.py:CFQKernelAdapter.reset",
        "markers.py:SRRReceiver.fail_channel",
        "markers.py:SRRReceiver.revive_channel",
        "resequencer.py:Resequencer.snapshot",
        "resequencer.py:Resequencer.restore",
        "resequencer.py:Resequencer.sender_restarted",
        "resequencer.py:Resequencer.fail_channel",
        "resequencer.py:Resequencer.revive_channel",
        "resequencer.py:Resequencer._nominal_size",
        "resequencer.py:NullResequencer.fail_channel",
        "resequencer.py:NullResequencer.snapshot",
        "resequencer.py:NullResequencer.restore",
        "resequencer.py:NullResequencer.sender_restarted",
        "sprinklers.py:FlowRateEstimator.reset",
        "sprinklers.py:SprinklersDiscipline.reset",
        "sprinklers.py:SprinklersDiscipline.snapshot",
        "sprinklers.py:SprinklersDiscipline.restore",
        "transform.py:LoadSharer.snapshot",
        "transform.py:TransformedLoadSharer.reset",
    )},
    "src/repro/sim/loss.py:DeterministicLoss.should_drop": "fault",
    **{f"{_TRANSPORT}{key}": "fault" for key in (
        "endpoint.py:StripeSenderPipeline.close",
        "endpoint.py:StripeReceiverPipeline.fail_channel",
        "endpoint.py:StripeReceiverPipeline.revive_channel",
        "fabric.py:FlowState.backlog",
        "fabric.py:FlowTable.restore",
        "fabric.py:FabricScheduler.can_submit",
        "fabric.py:FabricScheduler.take_head",
        "fabric.py:FabricScheduler.restore",
        "fec.py:_as_bytes",
        "fec.py:FecSender.stop",
        "fec.py:FecSender.restore",
        "fec.py:FecReceiver.stop",
        "fec.py:FecReceiver.restore",
        "recovery.py:_EndpointRecovery._retry",
        "recovery.py:SenderRecovery._logged_submit",
        "reliability.py:ReliableSender.window_room",
        "reliability.py:ReliableSender.on_channel_rejoin",
        "socket_striping.py:UdpChannelPort.close",
        "socket_striping.py:udp_ack_flow",
        "socket_striping.py:ack_listener",
        "udp.py:UdpLayer.close",
        "udp.py:UdpSocket.close",
    )},
    "src/repro/workloads/generators.py:PacedSource.stop": "fault",
}


#: the packages whose constructor options the run measures
OPTION_DIRS = ("core", "sim", "net", "transport", "workloads")

#: why an option that only ever takes one value may stay a parameter
OPTION_REASONS = {
    "record": "a field of a record type: packet, ack, parity, control",
    "benchmark": "a name or keyword perfbench uses",
    "deployment": "an address, port or name a deployment sets",
    "switch": "a switch or hook that arms fault detection or recovery",
    "trace": "a tracer",
}

#: constructor options kept though they only ever take one value, by
#: ``path:Class.parameter``
OPTIONS: Dict[str, str] = {
    # record: the fields of the packets, parity and acks a transport
    # builds, read back on the receive side
    **{f"{_CORE}packet.py:Packet.{name}": "record" for name in (
        "codepoint", "flow", "uid",
    )},
    **{f"{_TRANSPORT}fec.py:ParityPacket.{name}": "record" for name in (
        "codepoint", "fseq", "rseq", "seq", "size", "uid",
    )},
    **{f"{_TRANSPORT}reliability.py:AckPacket.{name}": "record" for name in (
        "codepoint", "size", "uid",
    )},
    # benchmark: keywords perfbench/rigs.py passes
    f"{_TRANSPORT}fabric.py:FabricScheduler.flow_buffer_packets": "benchmark",
    f"{_TRANSPORT}fabric.py:FlowTable.quantum_bytes": "benchmark",
    # deployment: addresses
    "src/repro/net/ethernet.py:EthernetInterface.mac": "deployment",
    f"{_TRANSPORT}tcp.py:BulkSender.src_ip": "deployment",
    # switch: the receiver's channel watchdog, and which fault kinds a
    # chaos plan arms (tests narrow it to the kinds an exactly-once run
    # survives)
    f"{_TRANSPORT}endpoint.py:StripeReceiverPipeline.failure_detector":
        "switch",
    "src/repro/sim/faults.py:FaultPlan.kinds": "switch",
    # trace
    f"{_CORE}striper.py:Striper.tracer": "trace",
    f"{_TRANSPORT}endpoint.py:StripeSenderPipeline.tracer": "trace",
    "src/repro/sim/trace.py:Tracer.max_events": "trace",
}


class Definition(NamedTuple):
    key: str  # "src/repro/<module>.py:<qualname>"
    lines: int


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if (
        body and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return all(
        isinstance(statement, (ast.Pass, ast.Raise)) or (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and statement.value.value is Ellipsis
        )
        for statement in body
    )


def definitions() -> Dict[Tuple[str, int], Definition]:
    """Every counted ``src/`` function by ``(file, first line)``: the line
    its code object reports, the first decorator's when it has one."""
    found: Dict[Tuple[str, int], Definition] = {}

    def visit(node: ast.AST, where: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")) and (
                    not _is_stub(child)
                ):
                    first = min(
                        [child.lineno]
                        + [line.lineno for line in child.decorator_list]
                    )
                    found[path, first] = Definition(
                        f"{where}:{prefix}{name}",
                        child.end_lineno - first + 1,
                    )
                visit(child, where, path, f"{prefix}{name}.<locals>.")

    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        visit(ast.parse(path.read_text()), where, str(path), "")
    return found


def constructors() -> Dict[Tuple[str, int], Tuple[str, Tuple[str, ...]]]:
    """Each ``__init__`` under :data:`OPTION_DIRS` that has optional
    parameters, by ``(file, first line)``: its ``path:Class`` and the names
    of those parameters."""
    found = {}
    for folder in OPTION_DIRS:
        for path in sorted((SRC / "repro" / folder).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                for init in node.body:
                    if not (
                        isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"
                    ):
                        continue
                    args = init.args
                    positional = args.posonlyargs + args.args
                    names = [
                        arg.arg for arg in
                        positional[len(positional) - len(args.defaults):]
                    ] + [
                        arg.arg for arg, default in
                        zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    ]
                    if names:
                        first = min(
                            [init.lineno]
                            + [line.lineno for line in init.decorator_list]
                        )
                        found[str(path), first] = (
                            f"{where}:{node.name}", tuple(names)
                        )
    return found


_CALLABLES = (
    types.FunctionType, types.MethodType, types.BuiltinFunctionType,
    functools.partial, type,
)


def _shape(value: Any, plain: bool = False) -> Any:
    """A hashable stand-in for an option's value: equal plain values read
    equal, a callable reads as its name, a random generator as its state,
    and any other object as its type and its plain attributes."""
    if value is None or isinstance(value, (int, float, str, bytes, enum.Enum)):
        return type(value) is bool, value
    if plain:
        return None
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(_shape(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return "set", tuple(sorted(repr(_shape(item)) for item in value))
    if isinstance(value, dict):
        return "dict", tuple(
            sorted((repr(key), _shape(item)) for key, item in value.items())
        )
    if isinstance(value, _CALLABLES):
        return "callable", getattr(value, "__qualname__", repr(value))
    if isinstance(value, random.Random):
        return "random", hash(value.getstate())
    try:
        attributes = tuple(sorted(
            (name, shape) for name, item in vars(value).items()
            for shape in [_shape(item, plain=True)] if shape is not None
        ))
    except TypeError:
        attributes = ()
    return "object", type(value).__qualname__, attributes


class Recorder:
    """The code objects entered while installed as the profiler, and the
    values each watched constructor's optional parameters received."""

    def __init__(
        self, watched: Dict[Tuple[str, int], Tuple[str, Tuple[str, ...]]]
    ) -> None:
        self.entered: Set = set()
        self.watched = watched
        self.values: Dict[Tuple[str, int], Dict[str, Set]] = {}
        self._spots: Dict[Any, Any] = {}

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.entered.add(code)
            if code.co_name == "__init__":
                if code not in self._spots:
                    spot = (
                        os.path.realpath(code.co_filename),
                        code.co_firstlineno,
                    )
                    self._spots[code] = spot if spot in self.watched else None
                spot = self._spots[code]
                if spot is not None:
                    received = frame.f_locals
                    seen = self.values.setdefault(spot, {})
                    for name in self.watched[spot][1]:
                        seen.setdefault(name, set()).add(
                            _shape(received[name])
                        )

    def options(self) -> Dict[str, Set]:
        """The distinct values each recorded option received, by
        ``path:Class.parameter``."""
        return {
            f"{self.watched[spot][0]}.{name}": values
            for spot, seen in self.values.items()
            for name, values in seen.items()
        }

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        sys.setprofile(self)
        try:
            yield
        finally:
            sys.setprofile(None)


def _quietly(run, *args) -> object:
    with contextlib.redirect_stdout(io.StringIO()):
        return run(*args)


def record() -> Recorder:
    """Run the four things and return what they entered and the values
    the watched constructors received."""
    from perfbench.__main__ import main as perfbench
    from perfbench.rigs import WORKLOADS
    from repro.experiments.runner import main as experiments
    from tests import frames

    recorder = Recorder(constructors())
    with tempfile.TemporaryDirectory() as tmp, recorder.installed():
        status = _quietly(
            experiments, ["--all", "--quick", "--json", f"{tmp}/quick.json"]
        )
        assert status == 0, "repro.experiments --all --quick failed"
    argv = sys.argv
    try:
        for example in EXAMPLES:
            sys.argv = [str(example)]
            with recorder.installed():
                _quietly(runpy.run_path, str(example), None, "__main__")
    finally:
        sys.argv = argv
    for shape in frames.SHAPES:
        # measure() runs under its own FrameCounter, which takes the
        # profiler over; what it counted is merged in afterwards.
        with recorder.installed():
            measured = frames.measure(shape)
        recorder.entered.update(measured.counter.by_code)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            with recorder.installed():
                status = _quietly(perfbench, [
                    "--workload", workload, "--scale", "0.02",
                    "--seconds", "0", "--trace", trace,
                ])
            assert status == 0, f"perfbench {workload} --trace {trace} failed"
    return recorder


def allowed_key(key: str) -> str:
    """The :data:`ALLOWED` entry that covers ``key``, or ``""``."""
    if key in ALLOWED:
        return key
    path, _, qualname = key.partition(":")
    owner = f"{path}:{qualname.split('.', 1)[0]}"
    return owner if owner in ALLOWED else ""


def main() -> int:
    found = definitions()
    recorder = record()
    entered = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in recorder.entered
    }
    unentered = [found[spot] for spot in sorted(found) if spot not in entered]
    covered: Dict[str, List[Definition]] = {}
    neither = []
    for definition in unentered:
        key = allowed_key(definition.key)
        if key:
            covered.setdefault(key, []).append(definition)
        else:
            neither.append(definition)
    stale = sorted(set(ALLOWED) - set(covered))
    counts: Counter = Counter()
    lines: Counter = Counter()
    for key, kept in covered.items():
        counts[ALLOWED[key]] += len(kept)
        lines[ALLOWED[key]] += sum(definition.lines for definition in kept)
    print(
        f"{len(found)} src/ definitions, {len(found) - len(unentered)} "
        f"entered; {len(unentered)} never entered, "
        f"{len(unentered) - len(neither)} allowlisted"
    )
    for reason in REASONS:
        print(f"  {reason:<9} {counts[reason]:>4} definitions "
              f"{lines[reason]:>5} lines")
    for definition in neither:
        print(f"never entered, not allowlisted: {definition.key} "
              f"({definition.lines} lines)")
    for key in stale:
        print(f"allowlisted, but covers nothing left unentered: {key}")
    options = recorder.options()
    single = {key: values for key, values in options.items() if len(values) == 1}
    unlisted = sorted(set(single) - set(OPTIONS))
    unused = sorted(set(OPTIONS) - set(single))
    kept = Counter(OPTIONS[key] for key in single if key in OPTIONS)
    print(
        f"{len(options)} constructor options, {len(single)} single-valued, "
        f"{sum(kept.values())} allowlisted"
    )
    for reason in OPTION_REASONS:
        print(f"  {reason:<10} {kept[reason]:>4} options")
    for key in unlisted:
        (value,) = single[key]
        print(f"single-valued, not allowlisted: {key} = {value!r}")
    for key in unused:
        print(f"allowlisted, but not a single-valued option: {key}")
    return 1 if neither or stale or unlisted or unused else 0


if __name__ == "__main__":
    sys.exit(main())
