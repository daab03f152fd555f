"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and methods of the rkdual modules while it
is installed.  Several modules import with ``from .x import y`` and the check
battery keeps its functions in a module-level tuple, so wrapping a name in
its defining module alone would miss most calls: :meth:`Tracer.install`
rebinds the wrapper wherever a module of the package binds the original,
including inside module-level tuples, and :meth:`Tracer.remove` restores
every binding.

Each call records one span: name, start, end, parent span and the K-space it
serves.  Spans stay in memory (compact arrays) until the run writes them out.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  Attributes with a dot are class members.
# Calls and self time are recorded for every span name; the checks.* names
# are check groups, reported by their inclusive time.
TARGETS = (
    ("linalg", "smith_normal_form", "linalg.snf"),
    ("linalg", "is_cone_acyclic", "linalg.cone_acyclic"),
    ("linalg", "Matrix.__mul__", "linalg.matmul"),
    ("linalg", "Matrix.column", "linalg.column"),
    ("simplicial", "barycentric_subdivision", "simplicial.subdivision"),
    ("rkcore", "is_full", "rkcore.is_full"),
    ("rkcore", "hom_rk", "rkcore.hom_rk"),
    ("rkcore", "RKMap.diagonal_component", "rkcore.diagonal_component"),
    ("rkcore", "delta_complexes", "rkcore.delta_complexes"),
    ("duality", "Dualizer.square", "duality.square"),
    ("duality", "Dualizer.object", "duality.object"),
    ("duality", "Dualizer.double_dual_map", "duality.double_dual_map"),
    ("duality", "tensor_k", "duality.tensor_k"),
    ("duality", "tensor_map_left", "duality.tensor_map_left"),
    ("duality", "verify_diagonal_equivalence", "duality.diagonal_equivalence"),
    ("ballcomplex", "BallComplex.__init__", "ballcomplex.ball"),
    ("ballcomplex", "cellular_chain_complex", "ballcomplex.cellular"),
    ("ballcomplex", "cellular_iso", "ballcomplex.cellular_iso"),
    ("ballcomplex", "dual_cell", "ballcomplex.dual_cell"),
    ("capproduct", "fundamental_cycle_map", "capproduct.fundamental_cycle_map"),
    ("capproduct", "verify_cap_chain_map", "capproduct.cap_chain_map"),
    ("capproduct", "verify_equivalences", "capproduct.equivalences"),
    ("checks", "KSpaceData.build", "checks.build"),
    ("checks", "check_soundness", "checks.soundness"),
    ("checks", "check_derived", "checks.soundness"),
    ("checks", "check_assembly", "checks.assembly"),
    ("checks", "check_lemmas", "checks.assembly"),
    ("checks", "check_tensor", "checks.tensor"),
    ("checks", "check_duality", "checks.duality"),
    ("checks", "check_cells", "checks.cells"),
    ("checks", "check_cap", "checks.cap"),
    ("checks", "check_equivalences", "checks.equivalences"),
    ("checks", "check_naturality", "checks.naturality"),
    ("report", "Report.to_json", "report.to_json"),
)


def _snf_sizes(counters, args, result):
    mat = args[0]
    mn = mat.nrows * mat.ncols
    counters["linalg.snf_mn"] += mn
    counters["linalg.snf_max_mn"] = max(counters["linalg.snf_max_mn"], mn)
    counters["linalg.snf_nnz"] += sum(1 for _ in mat.entries())


def _tensor_gens(counters, args, result):
    counters["duality.tensor_gens"] += result.total_rank()


def _cone_labels(counters, args, result):
    counters["duality.cone_labels"] += len(result.verdicts)


# Sizes read from a call's arguments or result, after its span has ended.
HOOKS = {"linalg.snf": _snf_sizes, "duality.tensor_k": _tensor_gens,
         "duality.diagonal_equivalence": _cone_labels}
PACKAGE = "rkdual"
COUNTERS = ("linalg.snf_mn", "linalg.snf_nnz", "linalg.snf_max_mn",
            "duality.tensor_gens", "duality.cone_labels")


class Tracer:
    def __init__(self):
        self.names = []                # span name per id
        self.name_ids = {}
        self.kspaces = []              # K-space label per id
        self.kspace = -1               # id of the K-space being verified
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_kspace = array("l")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []              # targets the program no longer has
        self._stack = []
        self._undo = []

    def serve(self, label: str):
        """Attribute the following spans to the K-space ``label``."""
        self.kspace = len(self.kspaces)
        self.kspaces.append(label)

    def _wrap(self, name, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        hook = HOOKS.get(name)
        stack, counters = self._stack, self.counters
        span_name, start, end = self.span_name, self.start, self.end
        parent, span_kspace = self.parent, self.span_kspace

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            span_kspace.append(self.kspace)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.missing = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        swaps = {}                     # id(original) -> wrapper
        for module, attr, name in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, member = attr.rpartition(".")
            cls = getattr(owner, cls_name, None) if cls_name else None
            holder = cls if cls_name else owner
            raw = vars(holder).get(member) if holder is not None else None
            if raw is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if cls is None:
                swaps[id(raw)] = (raw, self._wrap(name, raw))
            elif isinstance(raw, classmethod):
                self._set(cls, member, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, member, self._wrap(name, raw))
        for module in modules:
            for key, value in list(vars(module).items()):
                new = _rebind(value, swaps)
                if new is not value:
                    self._set(module, key, new)
        return self

    def _set(self, holder, key, value):
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def remove(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    # --- aggregation ------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "kspaces": self.kspaces,
                       "fields": ["name", "start", "end", "parent", "kspace"],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.start, self.end, self.parent,
                           self.span_kspace)]}, fh)


def _rebind(value, swaps):
    """``value`` with every wrapped original replaced by its wrapper,
    looking inside (nested) tuples; ``value`` itself when nothing changes."""
    hit = swaps.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, tuple):
        items = tuple(_rebind(v, swaps) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value
