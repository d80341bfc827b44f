"""Span tracing of groupshare's layers, applied from outside the package.

The tracer replaces selected public functions at the module attributes
their callers look up (``scheme.make_trivial_word``, ``cli.parse_word``,
...), so that every call through those names records a span: the function,
start, end, the enclosing span and the benchmark operation it belongs to.
Spans stay in memory in flat arrays until the run ends.  ``aggregate``
then derives call counts, inclusive and self times and the counters
recorded at the same boundaries (letters, Dehn steps, Tietze moves), and
``layer_metrics`` turns those into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from array import array

# Functions traced, by the module that defines them.  Each is replaced in
# every one of the seven modules whose namespace binds it, so calls made
# through ``from .x import f`` bindings are seen as well.  The serializers
# are traced so that the CLI handlers' self time is their own file I/O and
# bundle and manifest text.
TRACED = {
    "freegroup": ("parse_word", "serialize_word"),
    "smallcancel": (
        "random_platform_group",
        "check_small_cancellation",
        "make_trivial_word",
        "make_nontrivial_word",
        "dehn_is_trivial",
        "parse_presentation",
        "serialize_presentation",
    ),
    "tietze": ("break_relators", "serialize_breakdown"),
    "shamir": ("random_polynomial", "poly_eval", "lagrange_coefficients", "interpolate_at_zero"),
    "scheme": ("encode_column", "decode_column", "deal_nn", "deal_tn", "recover_share"),
    "securesum": ("run_secure_sum", "run_secure_linear_combination", "export_transcript"),
    "cli": ("cmd_deal", "cmd_recover", "cmd_tietze_break"),
}

# Span names for the CLI handlers, as the per-layer metrics name them.
_RENAME = {"cmd_deal": "deal", "cmd_recover": "recover", "cmd_tietze_break": "tietze_break"}

# Work counted at a span boundary, from the call's arguments and result.
_COUNTERS = {
    "smallcancel.make_trivial_word": lambda args, result: len(result),
    "smallcancel.dehn_is_trivial": lambda args, result: len(result.steps),
    "freegroup.parse_word": lambda args, result: len(result),
    "freegroup.serialize_word": lambda args, result: len(args[0]),
    "tietze.break_relators": lambda args, result: len(result.moves),
}

SETUP_OP = -1


class Tracer:
    """Records spans for calls through the wrapped module attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[tuple[str, int], float] = {}
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every function in ``TRACED`` wherever ``modules`` bind it,
        and enable the wrappers."""
        wrapped = {}
        for layer, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{_RENAME.get(fname, fname)}"))
        for module in modules.values():
            for attr, value in vars(module).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        self.enable()

    def enable(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def disable(self) -> None:
        """Put the original functions back."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, fn, span: str):
        nid = self.name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        counter = _COUNTERS.get(span)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                key = (span, self.op_id)
                self.counts[key] = self.counts.get(key, 0) + counter(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one span per line."""
        with open(path, "w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, and counters,
        split into the set-up phase (``setup_*``) and operations (plain keys)."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        agg: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            prefix = "setup_" if self.op[i] == SETUP_OP else ""
            row = agg.setdefault(name, {})
            dur = self.end[i] - self.start[i]
            for key, value in (("calls", 1), ("s", dur), ("self_s", dur - child[i])):
                row[prefix + key] = row.get(prefix + key, 0) + value
        for (name, op), value in self.counts.items():
            key = "setup_work" if op == SETUP_OP else "work"
            row = agg.setdefault(name, {})
            row[key] = row.get(key, 0) + value
        return agg


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    agg: dict[str, dict[str, float]], ops: int, busy: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, from ``Tracer.aggregate`` over ``ops`` traced
    operations that took ``busy`` seconds.

    Counts are per operation or per call.  Costs are rates (words, letters,
    groups or moves per second of the function's inclusive time) or shares
    of the operation time, so no metric is a bare time: a layer a workload
    does not run reads 0, and both forms cancel the machine's speed drift
    out of the comparison between layers.  The report file keeps the
    seconds.
    """

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    def per_op(name: str) -> float:
        return _ratio(get(name, "calls"), ops)

    def per_call(name: str, key: str) -> float:
        return _ratio(get(name, key), get(name, "calls"))

    def share(name: str, key: str) -> float:
        return _ratio(get(name, key), busy)

    sc, fg = "smallcancel", "freegroup"
    out: dict[str, tuple[float, str]] = {}
    for fn in ("make_nontrivial_word", "make_trivial_word", "dehn_is_trivial"):
        out[f"{sc}.{fn}.calls"] = (per_op(f"{sc}.{fn}"), "count")
        out[f"{sc}.{fn}.words_per_s"] = (
            _ratio(get(f"{sc}.{fn}", "calls"), get(f"{sc}.{fn}", "s")), "1/s")
    out[f"{sc}.make_trivial_word.letters_per_word"] = (
        per_call(f"{sc}.make_trivial_word", "work"), "count")
    out[f"{sc}.dehn_is_trivial.steps_per_word"] = (
        per_call(f"{sc}.dehn_is_trivial", "work"), "count")
    # Platform sampling happens in set-up (tn-stream, break) or inside
    # deal (nn-cli), so its rate and acceptance count both phases.
    rpg, check = f"{sc}.random_platform_group", f"{sc}.check_small_cancellation"
    groups = get(rpg, "calls") + get(rpg, "setup_calls")
    out[f"{rpg}.calls"] = (per_op(rpg), "count")
    out[f"{rpg}.groups_per_s"] = (_ratio(groups, get(rpg, "s") + get(rpg, "setup_s")), "1/s")
    out[f"{sc}.platform_accept_ratio"] = (
        _ratio(groups, get(check, "calls") + get(check, "setup_calls")), "ratio")
    out[f"{sc}.parse_presentation.share"] = (share(f"{sc}.parse_presentation", "s"), "ratio")
    for fn in ("parse_word", "serialize_word"):
        out[f"{fg}.{fn}.calls"] = (per_op(f"{fg}.{fn}"), "count")
        out[f"{fg}.{fn}.letters_per_s"] = (
            _ratio(get(f"{fg}.{fn}", "work"), get(f"{fg}.{fn}", "s")), "letters/s")
    for fn in ("encode_column", "decode_column", "deal_nn", "deal_tn", "recover_share"):
        out[f"scheme.{fn}.self_share"] = (share(f"scheme.{fn}", "self_s"), "ratio")
    shamir_self = sum(row.get("self_s", 0.0) for name, row in agg.items()
                      if name.startswith("shamir."))
    out["shamir.self_share"] = (_ratio(shamir_self, busy), "ratio")
    for fn in ("run_secure_sum", "run_secure_linear_combination", "export_transcript"):
        out[f"securesum.{fn}.share"] = (share(f"securesum.{fn}", "s"), "ratio")
    brk = "tietze.break_relators"
    out[f"{brk}.share"] = (share(brk, "s"), "ratio")
    out[f"{brk}.moves"] = (per_call(brk, "work"), "count")
    out[f"{brk}.moves_per_s"] = (_ratio(get(brk, "work"), get(brk, "s")), "1/s")
    for fn in ("deal", "recover", "tietze_break"):
        out[f"cli.{fn}.self_share"] = (share(f"cli.{fn}", "self_s"), "ratio")
    return out
