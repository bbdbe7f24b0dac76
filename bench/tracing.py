"""Tracing from outside the program: public functions of each rotweb module
are wrapped at their home module and at every import site, and each call
records its count, its own time (wrapped children removed) and whether it
raised.  Hot kernel methods are only aggregated; the other wrapped calls
also keep one span each, in memory, for the trace file written at the end.
"""

from __future__ import annotations

import sys
import time

# (home module, attribute, hot): hot entries keep aggregates only.
TARGETS = [
    ("rotweb.exactmath", "Poly.__mul__", True),
    ("rotweb.exactmath", "squarefree_decomposition", True),
    ("rotweb.exactmath", "real_root_count", True),
    ("rotweb.exactmath", "isolate_real_roots", True),
    ("rotweb.exactmath", "rational_roots", True),
    ("rotweb.linalg", "char_poly", False),
    ("rotweb.linalg", "nullspace", False),
    ("rotweb.linalg", "solve_many", False),
    ("rotweb.linalg", "rational_eigenvalues", False),
    ("rotweb.ckt_core", "tsn_check", False),
    ("rotweb.ckt_core", "lie_derivative", True),
    ("rotweb.ckt_core", "verify_ckt", True),
    ("rotweb.ckt_core", "symmetry_subspace", False),
    ("rotweb.ckt_core", "tsn_filter", False),
    ("rotweb.rotational", "assemble_rotational", False),
    ("rotweb.rotational", "extract_parameters", False),
    ("rotweb.group_action", "apply_quartic", True),
    ("rotweb.quartic_class", "canonical_form", False),
    ("rotweb.quartic_class", "classify_by_invariants", False),
    ("rotweb.quartic_class", "form_sign", True),
    ("rotweb.quartic_class", "root_structure", False),
    ("rotweb.separability", "solve_compatible", False),
    ("rotweb.separability", "is_closed", True),
    ("rotweb.expr", "eval_expr", False),
    ("rotweb.cli", "main", False),
]

# Functions whose raising is a counted outcome (the classify failures).
RAISING = ("quartic_class.canonical_form", "quartic_class.classify_by_invariants")


def _key(module: str, attr: str) -> str:
    short = module.split(".")[-1]
    return f"{short}.{'poly_mul' if attr == 'Poly.__mul__' else attr}"


class Tracer:
    def __init__(self):
        self.stats = {_key(m, a): [0, 0.0, 0] for m, a, _ in TARGETS}  # calls, self_s, raised
        self.spans: list = []
        self._children: list = []   # time covered by wrapped children, per open call
        self._open: list = []       # span ids of open calls
        self._patches: list = []    # (owner, attribute, original)
        self.op = None              # index of the operation in progress
        self.active = False         # off while the benchmark checks outputs

    def _wrap(self, fn, key: str, hot: bool):
        stats = self.stats[key]
        children = self._children
        clock = time.process_time

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children.append(0.0)
            if not hot:
                span_id = len(self.spans)
                self.spans.append(None)
                parent = self._open[-1] if self._open else None
                self._open.append(span_id)
            start = clock()
            raised = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = clock() - start
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                stats[0] += 1
                stats[1] += own
                stats[2] += raised
                if not hot:
                    self._open.pop()
                    self.spans[span_id] = (key, self.op, parent, start, elapsed, own, raised)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("rotweb") and m]
        for home, attr, hot in TARGETS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(original, _key(home, attr), hot)
                for name, value in list(cls.__dict__.items()):
                    if value is original:   # also Poly.__rmul__
                        self._patches.append((cls, name, original))
                        setattr(cls, name, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, _key(home, attr), hot)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def metrics(self) -> dict:
        out = {}
        for key, (calls, own, raised) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = own
            if key in RAISING:
                out[f"{key}.raised"] = raised
        calls, _, raised = self.stats["quartic_class.canonical_form"]
        out["quartic_class.canonical_form.ok_ratio"] = (calls - raised) / calls if calls else 0.0
        return out

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": c, "self_s": s, "raised": r}
                      for k, (c, s, r) in self.stats.items()},
            "spans": [dict(zip(("name", "op", "parent", "start", "duration_s", "self_s",
                                "raised"), span)) for span in self.spans],
        }
