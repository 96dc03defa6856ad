"""The rule suite: this repo's determinism & contract hazards, as AST checks.

Each rule encodes one contract from ROADMAP/README that used to live only
in prose.  The checks are deliberately *syntactic* — no type inference —
tuned so the shipped tree is a zero-findings baseline while every known
past bug shape is caught at its exact line (fixture pairs in
``tests/lint/`` pin both directions).  Rules err toward precision over
recall: a rule that cries wolf gets suppressed into uselessness, while a
miss is still backstopped by the runtime sanitizers and the chaos sweep.

| code  | contract |
|-------|----------|
| RL001 | never route/order by builtin ``hash()`` (salted per process)    |
| RL002 | no ``Network.send`` call or ``size_bytes=`` outside ``cluster/`` |
| RL004 | never iterate an unsorted set into sends/schedules/trace labels |
| RL006 | no wall-clock/RNG module imports inside ``repro.chaos``         |
| RL007 | no mutable default arguments (lattice/operator aliasing hazard) |

The literal-``size_bytes=`` rule folded into RL002, since only
``Network.send`` takes ``size_bytes``; RL005 retired with in-place lattice
merging (lattice values are now immutable).  Neither code is reused.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import Finding


def _terminal_name(expr: ast.AST) -> str:
    """The last identifier of a dotted expression (``a.b.net`` -> ``net``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _call_name(call: ast.Call) -> str:
    return _terminal_name(call.func)


def _in_cluster_layer(ctx: ModuleContext) -> bool:
    """True for the transport/network layer itself and its direct tests —
    the one place raw ``Network.send`` / byte literals are legitimate."""
    return "cluster" in ctx.path_parts


@register
class BuiltinHashRouting(Rule):
    """RL001: builtin ``hash()`` feeding a routing or ordering decision.

    Python salts ``hash()`` per process (``PYTHONHASHSEED``), so any shard
    index, ring token or sort key derived from it silently partitions the
    cluster differently on every run — the exact bug PR 1 replaced with
    blake2 digests.  Flagged wherever a ``hash(...)`` result reaches a
    ``%`` reduction, a subscript index, or a ``sorted``/``min``/``max``
    key; computing your own ``__hash__`` from it is fine (that feeds
    Python dicts, not the wire).  Route via
    ``repro.storage.ring.stable_digest`` instead.
    """

    code = "RL001"
    name = "builtin-hash-routing"
    summary = ("builtin hash() is PYTHONHASHSEED-salted; never derive "
               "routing/ordering from it — use storage.ring.stable_digest")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                continue
            function = ctx.enclosing_function(node)
            if function is not None and function.name == "__hash__":
                continue
            if self._feeds_routing(ctx, node):
                yield self.finding(
                    ctx, node,
                    "builtin hash() result feeds a routing/ordering decision; "
                    "it is salted per process — use "
                    "repro.storage.ring.stable_digest")

    def _feeds_routing(self, ctx: ModuleContext, call: ast.Call) -> bool:
        previous: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.BinOp) and isinstance(ancestor.op, ast.Mod):
                return True
            if isinstance(ancestor, ast.Subscript) and ancestor.slice is previous:
                return True
            if isinstance(ancestor, ast.keyword) and ancestor.arg == "key":
                return True
            if (isinstance(ancestor, ast.Call)
                    and _call_name(ancestor) in {"sorted", "min", "max"}
                    and previous in ancestor.args):
                return True
            if isinstance(ancestor, ast.stmt):
                return False
            previous = ancestor
        return False


@register
class DirectNetworkSend(Rule):
    """RL002: ``Network.send`` called, or a byte cost declared, from protocol code.

    All protocol traffic must flow through a node's transport
    (``queue``/``request``/``reply``/``forward``) so batching, RPC dedup
    and the byte ledger stay honest, and the transport prices every
    payload from its entry count via ``wire_size`` — with the
    bandwidth model on, a hand-declared size under-pays *time*, not just
    the byte ledger.  Flagged outside the ``cluster/`` layer: ``.send(...)``
    where the receiver is syntactically a network (``net``, ``network``,
    ``self.network``, ``env.network``, ...), and any call passing
    ``size_bytes=``, which only ``Network.send`` takes.  A call that does
    both is one finding, at the call's line.
    """

    code = "RL002"
    name = "direct-network-send"
    summary = ("protocol code must not call Network.send or declare "
               "size_bytes= — go through the node's Transport, which "
               "prices entries (cluster/ is exempt)")

    _RECEIVERS = {"net", "network"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if _in_cluster_layer(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "send":
                receiver = _terminal_name(node.func.value)
                if receiver in self._RECEIVERS or receiver.endswith("_network"):
                    yield self.finding(
                        ctx, node,
                        "direct Network.send bypasses the transport layer "
                        "(batching, RPC dedup, typed sizing); send via the "
                        "owning node's transport instead")
                    continue
            if any(keyword.arg == "size_bytes" for keyword in node.keywords):
                yield self.finding(
                    ctx, node,
                    "size_bytes= hand-declares a wire cost that will not "
                    "scale with the payload; send via the owning node's "
                    "transport with entries= and let wire_size() price it")


@register
class UnsortedIterationIntoSchedule(Rule):
    """RL004: unsorted set/dict-keys iteration feeding the event schedule.

    Set iteration order is salted by ``PYTHONHASHSEED``; a loop over a set
    that sends, queues, schedules or formats trace labels forks the event
    trace across interpreter runs — the bug class that broke cross-seed
    replay twice before PR 3 sorted the gossip dicts.  Flagged on ``for``
    loops (and comprehensions passed straight into a send) whose iterable
    is syntactically set-like — a set literal/comprehension, ``set(...)``,
    ``frozenset(...)``, ``.keys()``, or a union/intersection of those —
    without a ``sorted(...)`` wrapper, when the body reaches a transport
    or scheduler call or builds an f-string trace label.
    """

    code = "RL004"
    name = "unsorted-iteration-into-schedule"
    summary = ("never iterate a set/dict.keys() into sends, schedules or "
               "trace labels — wrap it in sorted(...) (PYTHONHASHSEED forks "
               "the trace otherwise)")

    #: Calls that feed the event schedule or the wire.
    _SINKS = {"send", "queue", "broadcast", "request", "reply", "forward",
              "schedule", "schedule_at", "set_timer"}
    #: Calls whose output is the trace itself.
    _TRACE_SINKS = {"log_fault", "trace", "record"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_unsorted_setlike(node.iter):
                if self._feeds_schedule(node.body):
                    yield self._finding_for(ctx, node.iter)
            elif isinstance(node, ast.Call) and self._is_sink(node):
                for argument in list(node.args) + [
                        keyword.value for keyword in node.keywords]:
                    if _is_unsorted_setlike(argument):
                        # Covers set literals, set comprehensions and
                        # set()/frozenset() calls passed straight in.
                        yield self._finding_for(ctx, argument)
                    elif isinstance(argument, (ast.ListComp, ast.GeneratorExp)):
                        iters = [generator.iter
                                 for generator in argument.generators]
                        if any(_is_unsorted_setlike(it) for it in iters):
                            yield self._finding_for(ctx, argument)

    def _finding_for(self, ctx: ModuleContext, node: ast.AST) -> Finding:
        return self.finding(
            ctx, node,
            "unsorted set/dict-keys iteration feeds the event schedule or "
            "trace; salted order forks the trace across PYTHONHASHSEED — "
            "wrap the iterable in sorted(...)")

    def _is_sink(self, call: ast.Call) -> bool:
        return _call_name(call) in self._SINKS | self._TRACE_SINKS

    def _feeds_schedule(self, body: list) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if self._is_sink(node):
                        return True
                    for keyword in node.keywords:
                        if (keyword.arg == "label"
                                and isinstance(keyword.value, ast.JoinedStr)):
                            return True
                    if (_call_name(node) in self._TRACE_SINKS
                            or any(isinstance(argument, ast.JoinedStr)
                                   and _call_name(node) in self._TRACE_SINKS
                                   for argument in node.args)):
                        return True
        return False


def _is_unsorted_setlike(expr: ast.AST) -> bool:
    """Syntactically set-typed and not wrapped in ``sorted(...)``."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = _call_name(expr)
        if name in {"set", "frozenset"}:
            return True
        if name == "keys" and isinstance(expr.func, ast.Attribute):
            return True
        if name in {"union", "intersection", "difference",
                    "symmetric_difference"}:
            # Set-algebra methods only make the result set-like when the
            # receiver already is (a plain name gives no type signal).
            return _is_unsorted_setlike(expr.func.value)
        if name in {"list", "tuple"} and expr.args:
            # list(set(...)) launders the type but not the order.
            return _is_unsorted_setlike(expr.args[0])
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_unsorted_setlike(expr.left) or _is_unsorted_setlike(expr.right)
    return False


@register
class NondeterminismInChaos(Rule):
    """RL006: wall-clock/RNG modules imported inside ``repro.chaos``.

    Chaos scenarios must be a pure function of ``(seed, schedule,
    config)`` — replay and greedy shrinking are unsound otherwise.
    Importing ``random``/``time``/``datetime``/``uuid``/``secrets`` into a
    chaos module is how ambient nondeterminism sneaks in.  A *seeded*
    ``random.Random(seed)`` plan generator is legitimate; carry the import
    with a suppression stating exactly that.
    """

    code = "RL006"
    name = "nondeterminism-in-chaos"
    summary = ("repro.chaos must stay a pure function of (seed, schedule, "
               "config): no random/time/datetime/uuid/secrets imports "
               "without a seeded-only justification")

    _MODULES = {"random", "time", "datetime", "uuid", "secrets"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if "chaos" not in ctx.path_parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in names:
                if name in self._MODULES:
                    yield self.finding(
                        ctx, node,
                        f"'{name}' imported in a chaos module; scenarios "
                        "must be a pure function of (seed, schedule, "
                        "config) — derive any randomness from the seed and "
                        "suppress with that justification")


@register
class MutableDefaultArgument(Rule):
    """RL007: a mutable default argument.

    One list/dict/set is created at ``def`` time and shared by every call
    — on lattice and operator classes that default means state aliased
    across instances, so one instance's growth shows up in every other.
    Use ``None`` plus an in-body default.
    """

    code = "RL007"
    name = "mutable-default-argument"
    summary = ("no mutable default arguments — one shared object leaks "
               "state across calls/instances; default to None")

    _FACTORIES = {"list", "dict", "set"}

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        "mutable default argument is created once and shared "
                        "by every call; default to None and build it in the "
                        "body")

    def _is_mutable(self, expr: ast.AST) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in self._FACTORIES)
