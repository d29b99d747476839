"""Tracing of the solver package, installed from outside.

`Tracer.install` replaces every public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span and op
id, plus a few attributes read from the return value (kernel status and
Newton steps, accepted SCA passes, outer iterations, scalar returns).  A
function that another traced module imported by name (for example
`sca_ic.solve_concave`) is wrapped under that name too, because the engines
call it through their own module globals.  Nothing under `src/` changes.

Spans stay in memory and are written as JSON lines by `write`.  Calls made
while no op is open (the benchmark's own output checks) pass straight
through and record nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import warnings

# Attribute extractors, keyed by the qualified name of the wrapped function.


def _outcome(out) -> dict:
    return {"status": out.status.value, "steps": int(out.iterations)}


def _passes_at(index):
    return lambda ret: {"passes": len(ret[index]) - 1}


def _report(ret) -> dict:
    return {"outer": int(ret.outer_iterations), "ret": float(ret.common_rate)}


def _samples(ret) -> dict:
    return {"samples": int(ret[0].samples)}


ANNOTATE = {
    "kernel.solve_concave": _outcome,
    "kernel.solve_lp": _outcome,
    "sca_ic.optimize_power_ic": _passes_at(1),
    "sca_ic.optimize_traj_ic": _passes_at(1),
    "sca_comp.optimize_traj_comp": _passes_at(2),
    "sca_ic.solve_p1": _report,
    "sca_ic.solve_p1_direct": _report,
    "sca_comp.solve_p21": _report,
    "sca_comp.solve_p21_direct": _report,
    "mc.sample_zf_rate": _samples,
}

# Span fields, in the order they are stored and written.
FIELDS = ("id", "name", "start", "end", "parent", "op", "attrs")


class Tracer:
    """Span recorder for the functions of a set of modules."""

    def __init__(self, modules, prefix: str):
        self.modules = list(modules)
        self.prefix = prefix
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation ---------------------------------------------------------
    def _short(self, module) -> str:
        return module.__name__[len(self.prefix):].lstrip(".")

    def install(self) -> None:
        originals = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[obj] = f"{self._short(mod)}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        annotate = ANNOTATE.get(name)
        capture = name.startswith("kernel.")
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                if capture:
                    # Kernel warnings (e.g. the step-cap overflow) are counted
                    # at the innermost kernel span that saw them.
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        ret = fn(*args, **kwargs)
                    if caught:
                        attrs["warnings"] = [
                            f"{w.category.__name__} {w.filename.rsplit('/', 1)[-1]}:"
                            f"{w.lineno} {w.message}" for w in caught]
                else:
                    ret = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["raised"] = type(exc).__name__
                raise
            else:
                if annotate is not None:
                    attrs.update(annotate(ret))
                elif isinstance(ret, float):
                    attrs["ret"] = ret
                return ret
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer.op, attrs or None))

        return functools.update_wrapper(traced, fn)

    # -- output -----------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def load_spans(path) -> list[tuple]:
    """Read a span file written by `Tracer.write`."""
    with open(path) as fh:
        return [tuple(json.loads(line)[k] for k in FIELDS) for line in fh]
