"""Layer spans and counters recorded from outside the program.

`Tracer.install` replaces the public functions of each layer with
wrappers in every `secgauss` module namespace that binds them (the
modules import each other's functions by name), and `Tracer.remove`
puts the originals back, so untraced passes run unwrapped code.  Spans
are kept in memory as ``[name, start, end, parent id, command id]`` and
reduced to per-layer metrics per pass.

Which end-to-end metric each layer metric should move, and where:

- ``cli.*``: ``wall_s`` on every workload.
- ``quantizer.residue_stats``: ``wall_s`` on greedy_sweep.
- ``quantizer.step_size_for_entropy``: ``wall_s`` on greedy_sweep and crosscheck.
- ``quantizer.step_search.evals`` (table builds inside step searches) and
  ``.max_evals`` (the most in one search; 512 or more means its fallback
  scan fired): ``wall_s`` on crosscheck.
- ``quantizer.build_bin_table``, ``model.truncated_moments.calls``:
  ``wall_s`` on crosscheck and greedy_sweep.
- ``quantizer.fold_bin_table.s``, ``lp.*``, ``simplex.*``: ``wall_s`` on
  lp_sweep; ``lp.enumerate_subset_candidates.s`` and ``lp.candidates``
  also ``peak_rss_mb`` there.
- ``schemes.greedy_*``: greedy_sweep.
- ``schemes.verify_jointly_gaussian_grid.s``,
  ``schemes.sign_split_key_requirement.s``, ``verify.run_suite.s``,
  ``sim.*``: ``wall_s`` on crosscheck; ``sim.*`` also ``peak_rss_mb``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (defining module, attribute, span name, counter fed from the call or None)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_curve", "cli.curve", None),
    ("cli", "cmd_lp", "cli.lp", None),
    ("cli", "cmd_sim", "cli.sim", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("quantizer", "entropy_given_residue", "quantizer.residue_stats", None),
    ("quantizer", "eve_mmse_given_residue", "quantizer.residue_stats", None),
    ("quantizer", "step_size_for_entropy", "quantizer.step_size_for_entropy", None),
    ("quantizer", "build_bin_table", "quantizer.build_bin_table", None),
    ("quantizer", "fold_bin_table", "quantizer.fold_bin_table", None),
    ("lp", "build_quantized_pmf", "lp.build_quantized_pmf", None),
    ("lp", "enumerate_subset_candidates", "lp.enumerate_subset_candidates", "lp.candidates"),
    ("lp", "solve_secrecy_lp", "lp.solve_secrecy_lp", None),
    ("simplex", "linear_program_max", "simplex.linear_program_max", None),
    ("schemes", "verify_jointly_gaussian_grid", "schemes.verify_jointly_gaussian_grid", None),
    ("schemes", "sign_split_key_requirement", "schemes.sign_split_key_requirement", None),
    ("sim", "run_sim", "sim.run_sim", "sim.symbols"),
    ("verify", "run_suite", "verify.run_suite", None),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("schemes", "GreedyQuantizedScheme", "__init__", "schemes.greedy_init"),
    ("schemes", "GreedyQuantizedScheme", "evaluate", "schemes.greedy_evaluate"),
)
# Hot inner calls are counted without a span to keep the overhead low.
COUNTERS = (
    ("model", "truncated_moments", "model.truncated_moments.calls"),
    ("simplex", "_pivot", "simplex.pivots"),
    ("simplex", "_iterate", "simplex.rounds"),
)
CLI_SPANS = ("cli.main", "cli.curve", "cli.lp", "cli.sim", "cli.verify")
_COUNTED = frozenset(name for _, _, name in COUNTERS)


def _amount(counter: str, args, result) -> int:
    if counter == "lp.candidates":
        return len(result)
    if counter == "sim.symbols":
        return int(args[0].n_symbols)
    raise KeyError(counter)


def secgauss_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "secgauss" or name.startswith("secgauss."))]


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{n}.s", "s", "lower") for n in ("cli.curve", "cli.lp", "cli.sim", "cli.verify")]
    out.append(("cli.self_s", "s", "lower"))
    for n in ("quantizer.residue_stats", "quantizer.step_size_for_entropy"):
        out += [(f"{n}.calls", "count", "lower"), (f"{n}.s", "s", "lower")]
    out += [("quantizer.step_search.evals", "count", "lower"),
            ("quantizer.step_search.max_evals", "count", "lower")]
    out += [("quantizer.build_bin_table.calls", "count", "lower"),
            ("quantizer.build_bin_table.s", "s", "lower"),
            ("quantizer.fold_bin_table.s", "s", "lower"),
            ("model.truncated_moments.calls", "count", "lower"),
            ("lp.enumerate_subset_candidates.s", "s", "lower"),
            ("lp.candidates", "count", "lower"),
            ("lp.build_quantized_pmf.s", "s", "lower"),
            ("lp.solve_secrecy_lp.self_s", "s", "lower"),
            ("simplex.linear_program_max.calls", "count", "lower"),
            ("simplex.linear_program_max.s", "s", "lower"),
            ("simplex.pivots", "count", "lower"),
            ("simplex.rounds", "count", "lower")]
    out += [(f"schemes.{n}.s", "s", "lower") for n in (
        "greedy_init", "greedy_evaluate", "verify_jointly_gaussian_grid",
        "sign_split_key_requirement")]
    out += [("sim.run_sim.s", "s", "lower"), ("sim.symbols_per_s", "1/s", "higher"),
            ("verify.run_suite.s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Spans and counters for one traced process; install, run, remove."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                counts[counter] += _amount(counter, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer function in every namespace that binds it."""
        import secgauss.cli  # noqa: F401  (imports every layer module)

        self.missing = []
        modules = secgauss_modules()
        plain = [(mod, attr, name, counter, True) for mod, attr, name, counter in SPANS]
        plain += [(mod, attr, name, None, False) for mod, attr, name in COUNTERS]
        for mod, attr, name, counter, is_span in plain:
            home = sys.modules[f"secgauss.{mod}"]
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = (self._span(name, original, counter) if is_span
                       else self._counter(name, original))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, original, wrapper)
        for mod, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(sys.modules[f"secgauss.{mod}"], cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
                continue
            self._replace(cls, attr, original, self._span(name, original, None))

    def remove(self) -> None:
        """Put every original back; raise if any attribute is still wrapped."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        stuck = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
                 if getattr(o, a) is not orig]
        self._saved.clear()
        if stuck:
            raise RuntimeError(f"tracing left wrappers on {', '.join(stuck)}")

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def _self_time(spans: list[list], children: dict[int, list[int]], idx: int) -> float:
    start, end = spans[idx][1], spans[idx][2]
    covered, reach = 0.0, start
    for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
        lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return end - start - covered


def pass_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    total: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    evals: Counter = Counter()  # table builds per step-search span
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if name in CLI_SPANS or name == "lp.solve_secrecy_lp":
            self_s[name] += _self_time(spans, children, i)
        if name == "quantizer.build_bin_table":
            while parent >= 0 and spans[parent][0] != "quantizer.step_size_for_entropy":
                parent = spans[parent][3]
            if parent >= 0:
                evals[parent] += 1

    out: dict[str, float] = {}
    for name, _, _ in per_layer_names():
        if name == "cli.self_s":
            out[name] = sum(self_s[n] for n in CLI_SPANS)
        elif name == "lp.solve_secrecy_lp.self_s":
            out[name] = self_s["lp.solve_secrecy_lp"]
        elif name == "quantizer.step_search.evals":
            out[name] = sum(evals.values())
        elif name == "quantizer.step_search.max_evals":
            out[name] = max(evals.values(), default=0)
        elif name == "sim.symbols_per_s":
            busy = total["sim.run_sim"]
            out[name] = counts["sim.symbols"] / busy if busy > 0 else 0.0
        elif name == "trace.overhead_s":
            continue
        elif name.endswith(".calls") and name not in _COUNTED:
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".s"):
            out[name] = total[name[: -len(".s")]]
        else:
            out[name] = counts[name]
    return out
