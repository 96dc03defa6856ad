"""cProfile -> per-layer self time and entry-point call counts.

A layer is a module path under ``src/repro/`` (``spec.LAYERS``).  A
function's self time (``tottime``) belongs to the layer of its source file;
built-in and stdlib self time belongs to whichever layer called it, read off
the profile's caller edges and followed through chains of non-repo frames
(``copy.deepcopy`` recursing, ``heapq`` calling ``Event.__lt__``) until a
repo frame is reached.  What reaches no repo frame is ``other``.
"""

from __future__ import annotations

import pstats
from pathlib import Path

from bench_e2e.spec import DRIVER_LAYER, LAYERS, OTHER_LAYER

BENCH_ROOT = Path(__file__).resolve().parent.parent
#: Passes over the non-repo call graph: the deepest chain of stdlib frames
#: between a repo caller and the time it is charged for.
_PROPAGATION_PASSES = 24
_LATTICE_MERGES = ("merge", "merge_into", "leq")


def _layer_of(filename: str, src_root: str) -> str | None:
    if filename.startswith(src_root):
        relative = filename[len(src_root):].lstrip("/")
        for layer, prefixes in LAYERS:
            if relative.startswith(prefixes):
                return layer
        return OTHER_LAYER
    if filename.startswith(str(BENCH_ROOT)):
        return DRIVER_LAYER
    return None


def layer_shares(profile, src_root: str) -> dict[str, float]:
    """Each layer's share of the profiled self time; sums to 1."""
    stats = pstats.Stats(profile).stats
    layer = {func: _layer_of(func[0], src_root) for func in stats}
    seconds: dict[str, float] = {}
    foreign = {}
    for func, (_, _, tottime, _, callers) in stats.items():
        if layer[func] is not None:
            seconds[layer[func]] = seconds.get(layer[func], 0.0) + tottime
        else:
            foreign[func] = (tottime, callers)

    # owner[f]: how a non-repo function's self time splits over the layers.
    # Each pass pushes repo callers' claims one frame deeper into non-repo
    # call chains.  Passes start from no claim at all and shares are
    # normalised at the end, so a tight recursion (deepcopy) entered from one
    # layer is that layer's after one pass instead of leaking to ``other``.
    owner: dict = {func: {} for func in foreign}
    for _ in range(_PROPAGATION_PASSES):
        updated = {}
        for func, (_, callers) in foreign.items():
            weights: dict[str, float] = {}
            total = 0.0
            for caller, (_, _, time_from_caller, _) in callers.items():
                if time_from_caller <= 0:
                    continue
                total += time_from_caller
                split = ({layer[caller]: 1.0} if layer.get(caller) is not None
                         else owner.get(caller, {}))
                for name, part in split.items():
                    weights[name] = weights.get(name, 0.0) + time_from_caller * part
            updated[func] = ({name: w / total for name, w in weights.items()}
                             if total else {})
        owner = updated
    for func, split in owner.items():
        claimed = sum(split.values())
        owner[func] = ({name: part / claimed for name, part in split.items()}
                       if claimed else {OTHER_LAYER: 1.0})
    for func, (tottime, _) in foreign.items():
        for name, part in owner[func].items():
            seconds[name] = seconds.get(name, 0.0) + tottime * part

    total = sum(seconds.values())
    return {name: value / total for name, value in sorted(seconds.items())}


def entry_calls(profile, src_root: str) -> dict[str, int]:
    """Calls into each layer's entry points during the profiled phase."""
    from repro.cluster.network import Network
    from repro.cluster.transport import Transport
    from repro.core.interpreter import SingleNodeInterpreter
    from repro.core.state import ProgramState
    from repro.storage.antientropy import DigestTree

    stats = pstats.Stats(profile).stats

    def calls(function) -> int:
        code = function.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        return entry[1] if entry else 0

    lattices = src_root.rstrip("/") + "/lattices/"
    return {
        "Network.send": calls(Network.send),
        "Transport.queue": calls(Transport.queue),
        "Transport.flush": calls(Transport.flush),
        "Transport.deliver": calls(Transport.deliver),
        "DigestTree.update": calls(DigestTree.update),
        "Lattice.merge|merge_into|leq": sum(
            entry[1] for func, entry in stats.items()
            if func[0].startswith(lattices) and func[2] in _LATTICE_MERGES),
        "ProgramState.snapshot": calls(ProgramState.snapshot),
        "SingleNodeInterpreter.run_tick": calls(SingleNodeInterpreter.run_tick),
    }
