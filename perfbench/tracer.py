"""Per-layer tracing from outside the package, by rebinding the attributes callers use.

Modules in the package import each other's functions by name
(``from .numerics import residual``), so a call goes through the importing
module's attribute, not the defining one. :class:`Tracer` therefore replaces
every attribute in every loaded ``covdilate`` module that is bound to a
target function, and sets a wrapper on the class for methods such as
``QuotientRep.__call__``. Calls made through other references (closures,
default arguments) are not seen.

Each wrapper records calls, total time (outermost activation only, so a
recursive call is not counted twice) and self time (total minus the time of
traced callees), plus a few size counts computed from argument and result
shapes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

# (module, qualified name); a dotted name is a method looked up on the class
TARGETS = (
    ("numerics", "gram_quotient"),
    ("numerics", "hermitian_residual"),
    ("numerics", "residual"),
    ("numerics", "spectral_norm"),
    ("numerics", "orthonormal_span"),
    ("cpmaps", "stinespring_gram"),
    ("cpmaps", "verify_transfer"),
    ("cpmaps", "verify_completely_positive"),
    ("covariant", "QuotientRep.__call__"),
    ("covariant", "extend_representation"),
    ("covariant", "two_step"),
    ("covariant", "defect_operators"),
    ("covariant", "verify_strategy"),
    ("tower", "TowerSystem.left_mult"),
    ("algebra", "left_mult_matrix"),
    ("algebra", "cyclic_summands"),
    ("extension", "coisometric_extend"),
    ("extension", "verify_coisometric_extension"),
    ("extension", "defect_decomposition"),
    ("dilation", "schaffer_dilate"),
    ("dilation", "compose_unitary"),
    ("dilation", "explicit_matricial_unitary"),
    ("dilation", "verify_isometric_dilation"),
    ("equivalence", "chain_intertwiner"),
    ("equivalence", "dilation_intertwiner"),
    ("scenario", "build_scenario"),
    ("cli", "run"),
    ("cli", "render_report"),
)

# targets that never call another target: their self time equals their total
LEAVES = frozenset({
    "numerics.spectral_norm", "numerics.orthonormal_span", "cpmaps.stinespring_gram",
    "cpmaps.verify_completely_positive", "tower.TowerSystem.left_mult",
    "algebra.left_mult_matrix", "cli.render_report",
})

COMMANDS = ("check", "extend", "dilate", "unitary", "matricial", "compare")
VERDICTS = ("equivalent", "inequivalent", "inconclusive")
_MIB = float(1 << 20)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, qual in TARGETS:
        key = f"{module}.{qual}"
        if key == "cli.run":
            for command in COMMANDS:
                names += [f"cli.run.{command}.calls", f"cli.run.{command}.total_s"]
            continue
        names += [f"{key}.calls", f"{key}.total_s"]
        if key not in LEAVES:
            names.append(f"{key}.self_s")
    names += ["numerics.gram_quotient.max_side", "numerics.gram_quotient.input_mib",
              "numerics.gram_quotient.kept_frac", "tower.TowerSystem.left_mult.output_mib"]
    names += [f"equivalence.verdict.{v}" for v in VERDICTS]
    names += ["errors.raised.total", "trace.overhead_frac"]
    return names


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


@dataclass
class _Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


class Tracer:
    """Install with ``with Tracer() as tr:``; read :meth:`metrics` afterwards."""

    def __init__(self):
        self.stats = {f"{m}.{q}": _Stat() for m, q in TARGETS}
        self.per_command: dict[str, _Stat] = {c: _Stat() for c in COMMANDS}
        self.verdicts = Counter()
        self.errors = Counter()
        self.gram_max_side = 0
        self.gram_side_sum = 0
        self.gram_rank_sum = 0
        self.gram_input_bytes = 0
        self.left_mult_bytes = 0
        self._children: list[float] = []   # traced-callee time of each open frame
        self._last_error = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        loaded = {name: mod for name, mod in sys.modules.items()
                  if name == "covdilate" or name.startswith("covdilate.")}
        for module, qual in TARGETS:
            owner = loaded[f"covdilate.{module}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, attr, self._wrap(f"{module}.{qual}", vars(cls)[attr]))
                continue
            original = getattr(owner, qual)
            wrapper = self._wrap(f"{module}.{qual}", original)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _rebind(self, obj, attr: str, wrapper) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        observe = {"numerics.gram_quotient": self._observe_gram,
                   "tower.TowerSystem.left_mult": self._observe_left_mult,
                   "equivalence.chain_intertwiner": self._observe_verdict,
                   "equivalence.dilation_intertwiner": self._observe_verdict}.get(key)
        children = self._children
        is_run = key == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.active += 1
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[type(exc).__name__] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - inner
                if not stat.active:
                    stat.total_s += elapsed
                if is_run:
                    per = self.per_command[args[1] if len(args) > 1 else kwargs["command"]]
                    per.calls += 1
                    per.total_s += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- size observers -------------------------------------------------------

    def _observe_gram(self, args, result) -> None:
        side = int(args[0].shape[0])
        self.gram_max_side = max(self.gram_max_side, side)
        self.gram_side_sum += side
        self.gram_rank_sum += int(result[2])
        self.gram_input_bytes += side * side * 16

    def _observe_left_mult(self, args, result) -> None:
        self.left_mult_bytes += result.nbytes

    def _observe_verdict(self, args, result) -> None:
        self.verdicts[result.verdict] += 1

    # -- results --------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            if key == "cli.run":
                for command, per in self.per_command.items():
                    out[f"cli.run.{command}.calls"] = per.calls
                    out[f"cli.run.{command}.total_s"] = per.total_s
                continue
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.total_s"] = stat.total_s
            if key not in LEAVES:
                out[f"{key}.self_s"] = stat.self_s
        out["numerics.gram_quotient.max_side"] = self.gram_max_side
        out["numerics.gram_quotient.input_mib"] = self.gram_input_bytes / _MIB
        out["numerics.gram_quotient.kept_frac"] = (
            self.gram_rank_sum / self.gram_side_sum if self.gram_side_sum else 0.0)
        out["tower.TowerSystem.left_mult.output_mib"] = self.left_mult_bytes / _MIB
        for verdict in VERDICTS:
            out[f"equivalence.verdict.{verdict}"] = self.verdicts[verdict]
        out["errors.raised.total"] = sum(self.errors.values())
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name in metric_names()}
