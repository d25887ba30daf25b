"""Per-layer tracing from outside the program.

The tracer replaces each listed function or method with a wrapper that
records a span (calls, total time, self time) while the tracer is active.
A function is patched where it is defined and in every irrkatz module that
imported it by name (``from .formal import extract_formal_data``), so each
call site goes through the wrapper.  Self time is a span's duration minus
the time its child spans cover; spans nest through re-entrant calls.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

ROOT_SPAN = "bench.op"


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass(frozen=True)
class Site:
    """A function to wrap: ``module`` and a dotted ``attr`` inside it."""

    span: str                  # span name, <module>.<function>
    module: str
    attr: str
    timed: bool = True         # False: count calls only
    hook: Callable | None = None   # hook(tracer, args, result) after success


def _bits(poly) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _hook_roots(tracer, args, result):
    poly = args[0]
    tracer.peak("polys.rational_roots.max_bits", _bits(poly))
    if sum(result.values()) == poly.degree:
        tracer.count("polys.rational_roots.split")


def _hook_extract(tracer, args, result):
    if tracer.inside("reduce.reduce_operator"):
        tracer.count("reduce.extractions")


def _hook_reduce_operator(tracer, args, result):
    tracer.count("reduce.euler_steps", len(result.transcript.euler_steps()))


def _hook_reduce_vector(tracer, args, result):
    tracer.count("reduce.reduce_vector.steps", len(result.steps))


def _hook_basis(tracer, args, result):
    tracer.peak("rootsys.build_basis.max_nodes", len(result.nodes))


SITES = (
    Site("polys.rational_roots", "irrkatz.polys", "Poly.rational_roots", hook=_hook_roots),
    Site("polys.poly_gcd", "irrkatz.polys", "poly_gcd"),
    *(Site(f"weylalg.{name}", "irrkatz.weylalg", name) for name in (
        "parse", "prim", "singular_points", "newton_polygon", "char_poly",
        "theta_expand", "subst_infty", "ad_exp_raw", "ad_power", "euler",
    )),
    Site("weylalg.DiffOperator.mul", "irrkatz.weylalg", "DiffOperator.__mul__", timed=False),
    Site("formal.extract_formal_data", "irrkatz.formal", "extract_formal_data", hook=_hook_extract),
    Site("formal.oshima_check", "irrkatz.formal", "oshima_check"),
    Site("formal.group_chains", "irrkatz.formal", "group_chains"),
    Site("formal.to_json", "irrkatz.formal", "to_json"),
    Site("reduce.reduce_operator", "irrkatz.reduce", "reduce_operator", hook=_hook_reduce_operator),
    Site("reduce.attempts", "irrkatz.reduce", "_reduce_operator_once", timed=False),
    Site("reduce.twisted_euler", "irrkatz.reduce", "twisted_euler"),
    Site("reduce.reduce_vector", "irrkatz.reduce", "reduce_vector", hook=_hook_reduce_vector),
    *(Site(f"lattice.{name}", "irrkatz.lattice", f"LatticeVector.{name}")
      for name in ("defect", "sigma_t", "sigma_perm")),
    Site("rootsys.build_basis", "irrkatz.rootsys", "build_basis", hook=_hook_basis),
    *(Site(f"rootsys.{name}", "irrkatz.rootsys", name)
      for name in ("idx", "canonical_lift", "classify_diagram", "pairing")),
    *(Site(f"exponents.{name}", "irrkatz.exponents", name)
      for name in ("act_sigma_t", "act_sigma_perm")),
    Site("corpus.instantiate", "irrkatz.corpus", "instantiate"),
    Site("cli.main", "irrkatz.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []      # [span name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, k: float = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def peak(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def inside(self, span: str) -> bool:
        return any(frame[0] == span for frame in self._stack)

    def call(self, span: str, fn, args, kwargs, timed=True, hook=None):
        if not self.active:
            return fn(*args, **kwargs)
        stat = self.stats.setdefault(span, SpanStat())
        stat.calls += 1
        if not timed:
            return fn(*args, **kwargs)
        frame = [span, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            stat.total_s += duration
            stat.self_s += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
        if hook is not None:
            hook(self, args, result)
        return result

    # -- patching ----------------------------------------------------------

    def _wrapper(self, site: Site, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(site.span, fn, args, kwargs, site.timed, site.hook)

        wrapper.__name__ = getattr(fn, "__name__", site.span)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, sites=SITES) -> list[str]:
        """Patch every site; returns the names of irrkatz modules whose
        globals still hold an unwrapped original (empty when complete)."""
        modules = {n: m for n, m in sys.modules.items() if n == "irrkatz" or n.startswith("irrkatz.")}
        originals = {}
        for site in sites:
            owner = modules[site.module]
            *path, name = site.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            wrapped = self._wrapper(site, fn)
            self._set(owner, name, wrapped)
            if not path:
                originals[id(fn)] = wrapped
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    self._set(module, name, originals[id(value)])
        return sorted(
            n for n, m in modules.items()
            if any(id(v) in originals for v in vars(m).values())
        )

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()
