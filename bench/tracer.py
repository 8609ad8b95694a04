"""Layer tracer for derlie, installed from outside the package.

Each target below is a public function or method of one derlie layer.
``install`` replaces it with a wrapper that records a span (name, start,
end, parent span) per call and adds the call's work counts.  Spans stay in
memory; ``Tracer.dump`` writes them out once the job has finished.

derlie modules bind many of these names with ``from .x import f``, so a
wrapper must be rebound on every module that holds the original, and a
method must be replaced on its class.  ``install`` rebinds every module
global that is the original and then refuses to run (TracerError) when a
target is missing or when an original is still reachable from a derlie
module, because such calls would bypass the wrapper and the layer would
report 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter


class TracerError(RuntimeError):
    """The tracer cannot see every call into a layer."""


# ---- work counts, computed from a call's arguments and result -----------------
# Counts that describe built objects (slices, matrices) are taken once per
# distinct result object, so cache hits inside the job add nothing.


def _slice_counts(seen, args, result):
    if id(result) in seen:
        return {}
    seen[id(result)] = result
    return {"elements": result.dim}


def _derivation_basis_counts(seen, args, result):
    if id(result) in seen:
        return {}
    seen[id(result)] = result
    return {"slice_dim": result.dim}


def _differential_counts(seen, args, result):
    if id(result) in seen:
        return {}
    seen[id(result)] = result
    return {"built": 1, "zero": int(result.is_zero()), "nnz": result.nnz()}


def _matrix_input_counts(seen, args, result):
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "nnz": m.nnz()}


def _quotient_input_counts(seen, args, result):
    cycles, boundaries = args[0], args[1]
    return {"rows": boundaries.dim, "cols": cycles.dim,
            "nnz": sum(len(v) for v in boundaries.vectors)}


# (module, attribute path, span name, work-count function or None)
TARGETS = (
    ("gradedlie", "GeneratorSet.slice", "gradedlie.slice", _slice_counts),
    ("gradedlie", "omega", "gradedlie.omega", None),
    ("dermodel", "derivation_basis", "dermodel.derivation_basis",
     _derivation_basis_counts),
    ("dermodel", "differential_matrix", "dermodel.differential_matrix",
     _differential_counts),
    # homology is wrapped only so that its bookkeeping is not charged to
    # the cli.run span that calls it.
    ("dermodel", "homology", "dermodel.homology", None),
    ("ratlinalg", "kernel_basis", "ratlinalg.kernel_basis",
     _matrix_input_counts),
    ("ratlinalg", "image_basis", "ratlinalg.image_basis",
     _matrix_input_counts),
    ("ratlinalg", "quotient_basis", "ratlinalg.quotient_basis",
     _quotient_input_counts),
    ("ratlinalg", "SpanSolver.add", "ratlinalg.span_solver", None),
    ("ratlinalg", "SpanSolver.express", "ratlinalg.span_solver", None),
    ("fistab", "homology_map", "fistab.homology_map", None),
    ("fistab", "sigma_action", "fistab.sigma_action", None),
    ("fistab", "character", "fistab.character", None),
    ("reptheory", "decompose", "reptheory.decompose", None),
    ("reptheory", "stability_report", "reptheory.stability_report", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit_report", "cli.emit_report", None),
)

PACKAGE = "derlie"
MODULES = ("ratlinalg", "gradedlie", "dermodel", "fistab", "reptheory", "cli")


class Tracer:
    """Spans and work counts of one process's calls into the targets."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        totals = self.counts.setdefault(name, {})
        seen: dict = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(seen, args, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; raises TracerError and restores everything
        if any call could bypass a wrapper."""
        modules = _load_modules()
        plan = []
        for module_name, path, span_name, count in targets:
            owner, attr = _resolve_owner(modules, module_name, path)
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if not callable(original):
                raise TracerError(
                    f"{PACKAGE}.{module_name}.{path} is missing; the trace "
                    f"would report 0 s for {span_name}")
            plan.append((owner, attr, original,
                         self.wrap(span_name, original, count)))
        try:
            for owner, attr, original, wrapper in plan:
                self._set(owner, attr, wrapper)
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            for owner, attr, original, _ in plan:
                where = _find_reference(original)
                if where is not None:
                    raise TracerError(
                        f"{where} still refers to the unwrapped "
                        f"{original.__module__}.{original.__qualname__}; "
                        f"calls through it would not be traced")
        except TracerError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _load_modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in MODULES}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve_owner(modules, module_name, path):
    owner = modules.get(module_name)
    if owner is None:
        raise TracerError(f"{PACKAGE}.{module_name} is not a traced module")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"{PACKAGE}.{module_name}.{path} is missing")
    return owner, attr


def _find_reference(original):
    """Where a derlie module still reaches ``original``: a module global,
    an item of a module-level container, a default argument of a module
    function, or a class attribute."""
    for mod in _package_modules():
        for key, value in vars(mod).items():
            label = f"{mod.__name__}.{key}"
            if value is original:
                return label
            if isinstance(value, dict):
                if any(v is original for v in value.values()):
                    return label
            elif isinstance(value, (list, tuple, set, frozenset)):
                if any(v is original for v in value):
                    return label
            elif isinstance(value, types.FunctionType):
                defaults = (value.__defaults__ or ()) + \
                    tuple((value.__kwdefaults__ or {}).values())
                if any(v is original for v in defaults):
                    return label
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if member is original:
                        return f"{label}.{attr}"
    return None
