"""Per-layer tracing of infsup-lab from outside the package.

``Tracer.install()`` wraps every public function of each layer module, plus
the private functions and methods named in ``NAMED``, in a timing wrapper.
The wrapper replaces the function in every binding that refers to it: the
defining module, each package module that imported it by name (``stokes``
and ``locking`` hold their own ``lu_solve``), module-level dicts that hold
it (``locking._BUILDERS``) and, for methods, the class.  ``restore()`` puts
every original back.  A name in ``NAMED`` that the package no longer defines
is reported in ``absent`` and its metrics read 0.

One child process runs one ``Tracer``; the package is single-threaded here
(``INFSUP_LAB_THREADS`` unset), so one call stack suffices.  Per function the
tracer keeps the call count, inclusive seconds (outermost call only, so
recursion is not counted twice) and self seconds (minus the time of traced
callees).  ``aggregate`` sums the summaries of a workload's children and
``layer_metrics`` turns the sum into the benchmark's per-layer metrics.
"""

import functools
import importlib
import inspect
import os
import sys
import time

PACKAGE = "infsup_lab"
LAYERS = ("mesh", "fespace", "assembly", "linalg", "infsup", "stokes",
          "locking", "weakbc", "verify", "cli")

# Functions that become one span when any of them is outermost.
GROUPS = {
    "assembly.operators": (
        "assembly.stiffness", "assembly.mass", "assembly.cross_mass",
        "assembly.lumped_mass", "assembly.divergence",
        "assembly.grad_coupling", "assembly.pressure_grad_stab",
        "assembly.load_vector", "assembly.gradient_load",
        "assembly.boundary_mass", "assembly.boundary_normal_flux",
        "assembly.boundary_flux_flux", "assembly.boundary_load",
        "assembly.boundary_operators"),
    "cli.serialize": ("cli._write_json", "cli._write_csv", "cli._write_vtk"),
}

# (ancestor, callee): seconds of callee spent inside ancestor.
NESTED = (("locking.run", "linalg.lu_solve"),)

# Every function key a metric reads.  Private names and methods are traced
# only because they are listed here.
NAMED = tuple(sorted({
    "linalg.svd", "linalg.cholesky", "linalg.lu_solve", "linalg.sym_eig",
    "linalg.csr_from_arrays", "linalg.CsrMatrix.to_dense",
    "infsup.infsup_weighted", "infsup.pair_operators",
    "assembly.SaddleSystem.full_matrix", "assembly.apply_dirichlet",
    "mesh.unit_square_mesh", "mesh.edge_table", "fespace.build_space",
    "fespace.fields_at_quadrature", "stokes.build", "stokes.solve",
    "stokes.errors", "locking.run", "locking._blocks",
    "weakbc.inverse_constant", "weakbc.build", "weakbc.errors",
    *GROUPS["assembly.operators"], *GROUPS["cli.serialize"],
    *(callee for pair in NESTED for callee in pair),
}))

COUNTERS = ("linalg.svd.max_dim", "linalg.lu_solve.max_n",
            "assembly.dense_bytes", "assembly.nnz", "stokes.n_dofs",
            "cli.bytes_written")
_MAX_COUNTERS = ("linalg.svd.max_dim", "linalg.lu_solve.max_n")


class _Stat:
    __slots__ = ("calls", "incl_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0


def _count_max(key, size):
    def probe(tracer, args, result):
        dims = tuple(getattr(args[0], "shape", ()))
        if dims:
            tracer.counters[key] = max(tracer.counters[key], size(dims))
    return probe


def _count_dense(tracer, args, result):
    tracer.counters["assembly.dense_bytes"] += int(getattr(result, "nbytes", 0))


def _count_nnz(tracer, args, result):
    # nested operator calls are part of the outer operator's matrix
    if tracer.group_depth["assembly.operators"] == 0:
        tracer.counters["assembly.nnz"] += int(getattr(result, "nnz", 0))


def _count_dofs(tracer, args, result):
    tracer.counters["stokes.n_dofs"] += int(getattr(args[0], "n_total", 0))


def _count_written(tracer, args, result):
    tracer.counters["cli.bytes_written"] += os.path.getsize(args[0])


PROBES = {
    "linalg.svd": _count_max("linalg.svd.max_dim", max),
    "linalg.lu_solve": _count_max("linalg.lu_solve.max_n", lambda d: d[0]),
    "linalg.CsrMatrix.to_dense": _count_dense,
    "assembly.SaddleSystem.full_matrix": _count_dense,
    "stokes.solve": _count_dofs,
    **{key: _count_nnz for key in GROUPS["assembly.operators"]},
    **{key: _count_written for key in GROUPS["cli.serialize"]},
}


class Tracer:
    def __init__(self):
        self.functions = {}
        self.group_s = {g: 0.0 for g in GROUPS}
        self.group_depth = {g: 0 for g in GROUPS}
        self.nested_s = {f"{a}>{c}": 0.0 for a, c in NESTED}
        self.counters = {k: 0 for k in COUNTERS}
        self.absent = []
        self._stack = []
        self._restore = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(key, owner, attribute, original) for every function to wrap."""
        targets, seen = [], set()
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            mod = modules[layer]
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == mod.__name__):
                    targets.append((f"{layer}.{name}", mod, name, value))
                    seen.add(f"{layer}.{name}")
        for key in NAMED:
            if key in seen:
                continue
            layer, *path = key.split(".")
            owner = modules.get(layer)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            value = vars(owner).get(path[-1]) if owner is not None else None
            if inspect.isfunction(value):
                targets.append((key, owner, path[-1], value))
            else:
                self.absent.append(key)
        return targets

    def install(self):
        wrappers = {}
        for key, owner, attr, original in self._targets():
            wrapper = self._wrap(key, original)
            wrappers[id(original)] = (original, wrapper)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
        # rebind every module-level reference, in every package module
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._restore.append((mod, attr, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            value[k] = wrappers[id(v)][1]
                            self._restore.append((value, k, v))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- timing -----------------------------------------------------------

    def _wrap(self, key, fn):
        stat = self.functions.setdefault(key, _Stat())
        groups = [g for g, members in GROUPS.items() if key in members]
        nested = [(f"{a}>{c}", a) for a, c in NESTED if c == key]
        probe = PROBES.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            for g in groups:
                self.group_depth[g] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                stat.calls += 1
                stat.self_s += spent - frame[0]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl_s += spent
                for g in groups:
                    self.group_depth[g] -= 1
                    if self.group_depth[g] == 0:
                        self.group_s[g] += spent
                for name, ancestor in nested:
                    outer = self.functions.get(ancestor)
                    if outer is not None and outer.depth > 0:
                        self.nested_s[name] += spent
            if probe is not None:
                probe(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "functions": {k: {"calls": s.calls, "incl_s": s.incl_s,
                              "self_s": s.self_s}
                          for k, s in self.functions.items() if s.calls},
            "groups": dict(self.group_s),
            "nested": dict(self.nested_s),
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
        }


# ---------------------------------------------------------------------------
# aggregation over the children of one pass, and the per-layer metrics
# ---------------------------------------------------------------------------

def aggregate(summaries) -> dict:
    total = {"functions": {}, "groups": {g: 0.0 for g in GROUPS},
             "nested": {f"{a}>{c}": 0.0 for a, c in NESTED},
             "counters": {k: 0 for k in COUNTERS}, "absent": set()}
    for s in summaries:
        for key, f in s["functions"].items():
            acc = total["functions"].setdefault(
                key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += f[field]
        for section in ("groups", "nested"):
            for key, value in s[section].items():
                total[section][key] += value
        for key, value in s["counters"].items():
            if key in _MAX_COUNTERS:
                total["counters"][key] = max(total["counters"][key], value)
            else:
                total["counters"][key] += value
        total["absent"].update(s["absent"])
    total["absent"] = sorted(total["absent"])
    return total


# metric name -> (function key, field)
_FUNCTION_METRICS = {
    "linalg.svd.s": ("linalg.svd", "incl_s"),
    "linalg.svd.calls": ("linalg.svd", "calls"),
    "linalg.cholesky.s": ("linalg.cholesky", "incl_s"),
    "infsup.whiten.self_s": ("infsup.infsup_weighted", "self_s"),
    "infsup.pair_operators.s": ("infsup.pair_operators", "incl_s"),
    "linalg.lu_solve.s": ("linalg.lu_solve", "incl_s"),
    "linalg.lu_solve.calls": ("linalg.lu_solve", "calls"),
    "assembly.full_matrix.s": ("assembly.SaddleSystem.full_matrix", "incl_s"),
    "linalg.to_dense.s": ("linalg.CsrMatrix.to_dense", "incl_s"),
    "linalg.csr_from_arrays.s": ("linalg.csr_from_arrays", "incl_s"),
    "linalg.csr_from_arrays.calls": ("linalg.csr_from_arrays", "calls"),
    "assembly.apply_dirichlet.s": ("assembly.apply_dirichlet", "incl_s"),
    "mesh.unit_square_mesh.s": ("mesh.unit_square_mesh", "incl_s"),
    "mesh.edge_table.s": ("mesh.edge_table", "incl_s"),
    "fespace.build_space.s": ("fespace.build_space", "incl_s"),
    "fespace.fields_at_quadrature.s": ("fespace.fields_at_quadrature",
                                       "incl_s"),
    "stokes.build.s": ("stokes.build", "incl_s"),
    "stokes.solve.self_s": ("stokes.solve", "self_s"),
    "stokes.errors.s": ("stokes.errors", "incl_s"),
    "locking.run.s": ("locking.run", "incl_s"),
    "locking.blocks.calls": ("locking._blocks", "calls"),
    "linalg.sym_eig.s": ("linalg.sym_eig", "incl_s"),
    "weakbc.inverse_constant.s": ("weakbc.inverse_constant", "incl_s"),
    "weakbc.build.s": ("weakbc.build", "incl_s"),
    "weakbc.errors.s": ("weakbc.errors", "incl_s"),
}

# metric name -> unit, for every per-layer metric
UNITS = {
    **{name: ("count" if name.endswith(".calls") else "s")
       for name in _FUNCTION_METRICS},
    "linalg.svd.max_dim": "count",
    "linalg.lu_solve.max_n": "count",
    "assembly.dense_bytes": "bytes",
    "assembly.nnz": "count",
    "assembly.operators.s": "s",
    "stokes.n_dofs": "count",
    "locking.assemble.self_s": "s",
    "cli.serialize.s": "s",
    "cli.bytes_written": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "proc.cpu_s": "s",
    "proc.exit_s": "s",
}


def layer_metrics(total: dict, busy_s: float, overhead_s: float,
                  cpu_s: float, exit_s: float) -> dict:
    """Per-layer metric values from an aggregated trace.

    ``busy_s`` is the traced pass's wall time minus its set-up time.
    ``exit_s`` is the time from ``main``'s return to process exit
    (interpreter shutdown), which no module holds; it is the ``proc``
    layer's share.  ``trace.coverage`` is the share of ``busy_s`` that the
    modules' self times plus ``exit_s`` account for.  ``cli.main`` is itself
    traced, so time inside it that no deeper function explains lands in
    ``layer.cli.self_s``; a small value there is what shows that the named
    layers hold the time.
    """
    funcs = total["functions"]
    values = {name: funcs.get(key, {}).get(field, 0)
              for name, (key, field) in _FUNCTION_METRICS.items()}
    values.update(total["counters"])
    values["assembly.operators.s"] = total["groups"]["assembly.operators"]
    values["cli.serialize.s"] = total["groups"]["cli.serialize"]
    values["locking.assemble.self_s"] = (
        funcs.get("locking.run", {}).get("incl_s", 0.0)
        - total["nested"]["locking.run>linalg.lu_solve"])
    layer_self = {layer: 0.0 for layer in LAYERS}
    for key, f in funcs.items():
        layer_self[key.split(".")[0]] += f["self_s"]
    for layer, seconds in layer_self.items():
        values[f"layer.{layer}.self_s"] = seconds
    values["trace.coverage"] = (sum(layer_self.values()) + exit_s) / busy_s
    values["trace.overhead_s"] = overhead_s
    values["proc.cpu_s"] = cpu_s
    values["proc.exit_s"] = exit_s
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in UNITS}
