"""Outside-in tracer for arrowlab.

The tracer edits nothing under ``src/``.  While installed it replaces, and on
uninstall restores:

* every function an arrowlab module reaches through a module attribute: the
  public functions of each module and the helpers one module imports from
  another (``arrow`` and ``collisions`` import ``core._entropy_of_matrix``);
* the validating ``__post_init__`` of ``DensityOperator``,
  ``UnitaryOperator`` and ``Hamiltonian``;
* the NumPy kernels ``numpy.linalg.eigh``, ``numpy.linalg.eigvalsh`` (counted
  by matrix dimension) and ``numpy.einsum``;
* ``scipy.optimize.minimize``, whose ``nfev``, ``nit`` and ``success`` are
  recorded and whose objective becomes the span ``arrow.objective``.

Each wrapped call is a span: name, start, end, parent span and run id (one
run id per CLI invocation).  Spans stay in memory in flat arrays and are
written once by :meth:`Tracer.write_spans`.  Kernel calls are not spans;
their counts and time are charged to the innermost span's layer.  A layer's
self time is the duration of its spans minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np
import scipy.optimize

PACKAGE = "arrowlab"
LAYERS = ("core", "arrow", "collisions", "fluctuation", "experiments", "cli")
# spans outside the package: the optimizer library, and kernels called by
# the benchmark itself with no arrowlab span open
EXTRA_LAYERS = ("scipy", "bench")
VALIDATED_CLASSES = ("DensityOperator", "UnitaryOperator", "Hamiltonian")
LARGE_DIM = 64

# span groups: a group's calls and time count only its outermost spans, so
# nested members are never counted twice
GROUPS = {
    "density": ("core.DensityOperator",),
    "unitary": ("core.UnitaryOperator",),
    "hamiltonian": ("core.Hamiltonian",),
    "entropy": ("core.von_neumann_entropy", "core.mutual_information", "core._entropy_of_matrix"),
    "partial_trace": ("core.partial_trace", "core._partial_trace_matrix"),
    "haar": ("core.haar_random_unitary",),
    "relative_entropy": ("core.relative_entropy",),
    "entropy_balance": ("arrow.entropy_balance",),
    "search": ("arrow.search_entropy_decreasing_unitary",),
    "objective": ("arrow.objective",),
    "spectral_assignment": ("arrow.spectral_assignment_unitary",),
    "run_joint": ("collisions.run_collisions_joint",),
    "reverse": ("collisions.reverse_collisions",),
    "crooks_check": ("fluctuation.crooks_check",),
    "distribution": ("fluctuation.forward_distribution", "fluctuation.backward_distribution"),
    "random_protocol": ("fluctuation.random_protocol",),
    "heat_flow_trial": ("fluctuation.heat_flow_trial",),
    "damping_heat": ("fluctuation.damping_heat",),
    "validate_config": ("cli.validate_config",),
    "serialize": ("cli.serialize_csv", "cli.serialize_json"),
}

# spans whose descendants are counted: eigendecompositions inside
# entropy_balance, distributions and Crooks checks inside run_crooks
WATCHED = ("arrow.entropy_balance", "experiments.run_crooks")

# Golub & Van Loan operation counts for a real symmetric n x n matrix:
# 4n^3/3 for eigenvalues alone, 9n^3 with eigenvectors; complex arithmetic
# costs four real operations per multiply-add.
EIG_FLOPS_PER_N3 = {False: 4.0 / 3.0, True: 9.0}
COMPLEX_FLOP_FACTOR = 4.0

LAYER_METRICS = {
    "core.density_validations": "count",
    "core.density_validation_s": "s",
    "core.unitary_validation_s": "s",
    "core.hamiltonian_build_s": "s",
    "core.eig_calls": "count",
    "core.eig_calls_ge64": "count",
    "core.eig_s": "s",
    "core.eig_flops_computed": "flop",
    "core.entropy_s": "s",
    "core.partial_trace_calls": "count",
    "core.partial_trace_s": "s",
    "core.haar_unitary_s": "s",
    "core.relative_entropy_s": "s",
    "arrow.entropy_balance_calls": "count",
    "arrow.entropy_balance_s": "s",
    "arrow.eigs_per_entropy_balance": "count/call",
    "arrow.search_s": "s",
    "arrow.objective_evals": "count",
    "arrow.objective_eval_us": "us",
    "arrow.restarts_converged_ratio": "ratio",
    "arrow.restarts_useful_ratio": "ratio",
    "arrow.spectral_assignment_s": "s",
    "collisions.run_joint_s": "s",
    "collisions.reverse_calls": "count",
    "collisions.reverse_s": "s",
    "collisions.einsum_calls": "count",
    "collisions.einsum_s": "s",
    "collisions.joint_state_mb": "MiB",
    "fluctuation.crooks_check_s": "s",
    "fluctuation.distributions_per_trial": "count/trial",
    "fluctuation.distribution_s": "s",
    "fluctuation.random_protocol_s": "s",
    "fluctuation.heat_flow_trial_s": "s",
    "fluctuation.damping_heat_s": "s",
    "experiments.self_s": "s",
    "cli.validate_config_s": "s",
    "cli.serialize_s": "s",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers, records spans and aggregates counters.

    Use as a context manager around the traced calls.  Counters cover the
    calls since the last :meth:`reset_counters`; spans accumulate until the
    tracer is discarded.
    """

    def __init__(self):
        self._modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self._layers = LAYERS + EXTRA_LAYERS
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        self._name_groups: list[tuple[int, ...]] = []
        self._group_names = list(GROUPS)
        self._watched_ids = {self._intern(name) for name in WATCHED}
        for gid, members in enumerate(GROUPS.values()):
            for member in members:
                nid = self._intern(member)
                self._name_groups[nid] = self._name_groups[nid] + (gid,)
        self.span_name = array("I")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_run = array("I")
        self.run_id = 0
        self._stack: list[list] = []
        self.reset_counters()

    # -- bookkeeping ------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._name_layer.append(self._layers.index(name.split(".", 1)[0]))
            self._name_groups.append(())
        return nid

    def reset_counters(self) -> None:
        n_layers = len(self._layers)
        self.name_calls: Counter = Counter()
        self.layer_self_s = [0.0] * n_layers
        self._layer_open = [0] * n_layers
        self.group_calls = [0] * len(GROUPS)
        self.group_s = [0.0] * len(GROUPS)
        self._group_open = [0] * len(GROUPS)
        self.kernels = [Counter() for _ in range(n_layers)]
        self.eig_dims: Counter = Counter()
        self.under: defaultdict[int, Counter] = defaultdict(Counter)
        self._open_watched: list[int] = []
        self.optimizer_runs: list[tuple[int, int, bool]] = []
        self.best_restarts: list[int] = []
        self.max_collision_state_dim = 0

    def _enter(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        for w in self._open_watched:
            self.under[w][nid] += 1
        if nid in self._watched_ids:
            self._open_watched.append(nid)
        for gid in self._name_groups[nid]:
            self._group_open[gid] += 1
        layer = self._name_layer[nid]
        self._layer_open[layer] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        frame = [idx, nid, layer, start, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        idx, nid, layer, start, child = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        self.span_end[idx] = end
        self.layer_self_s[layer] += duration - child
        if stack:
            stack[-1][4] += duration
        self.name_calls[nid] += 1
        self._layer_open[layer] -= 1
        for gid in self._name_groups[nid]:
            self._group_open[gid] -= 1
            if self._group_open[gid] == 0:
                self.group_calls[gid] += 1
                self.group_s[gid] += duration
        if nid in self._watched_ids:
            self._open_watched.remove(nid)

    def _charge(self, kind: str, seconds: float, **counts: float) -> None:
        layer = self._stack[-1][2] if self._stack else self._layers.index("bench")
        kernel = self.kernels[layer]
        kernel[f"{kind}_calls"] += 1
        kernel[f"{kind}_s"] += seconds
        for key, value in counts.items():
            kernel[key] += value
        for w in self._open_watched:
            self.under[w][kind] += 1

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, hook=None):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                tracer._exit(frame)

        return traced

    def _eig_kernel(self, fn, vectors: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            start = time.perf_counter()
            result = fn(a, *args, **kwargs)
            seconds = time.perf_counter() - start
            shape = np.shape(a)
            n = shape[-1]
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            flops = batch * EIG_FLOPS_PER_N3[vectors] * n**3
            if np.iscomplexobj(a):
                flops *= COMPLEX_FLOP_FACTOR
            tracer.eig_dims[n] += batch
            tracer._charge("eig", seconds, eig_ge64=batch if n >= LARGE_DIM else 0, eig_flops=flops)
            return result

        return traced

    def _einsum_kernel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer._charge("einsum", time.perf_counter() - start)
            return result

        return traced

    def _minimize(self, minimize):
        tracer = self
        span_minimize = self._span(minimize, "scipy.minimize")

        @functools.wraps(minimize)
        def traced(fun, x0, *args, **kwargs):
            result = span_minimize(tracer._span(fun, "arrow.objective"), x0, *args, **kwargs)
            tracer.optimizer_runs.append((int(result.nfev), int(result.nit), bool(result.success)))
            return result

        return traced

    def _record_density(self, args, _result) -> None:
        if self._layer_open[self._layers.index("collisions")]:
            self.max_collision_state_dim = max(self.max_collision_state_dim, args[0].dim)

    def _record_search(self, _args, result) -> None:
        self.best_restarts.append(int(result.best_restart))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        hooks = {"arrow.search_entropy_decreasing_unitary": self._record_search}
        wrappers = {}
        for module in self._modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or not obj.__module__.startswith(prefix):
                    continue
                if attr.startswith("_") and obj.__module__ == module.__name__:
                    continue  # private helper called inside its own module
                if obj not in wrappers:
                    name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[obj] = self._span(obj, name, hooks.get(name))
                self._patch(module, attr, wrappers[obj])
        core = self._modules["core"]
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(core, cls_name)
            hook = self._record_density if cls_name == "DensityOperator" else None
            self._patch(cls, "__post_init__", self._span(cls.__post_init__, f"core.{cls_name}", hook))
        self._patch(np.linalg, "eigh", self._eig_kernel(np.linalg.eigh, vectors=True))
        self._patch(np.linalg, "eigvalsh", self._eig_kernel(np.linalg.eigvalsh, vectors=False))
        self._patch(np, "einsum", self._einsum_kernel(np.einsum))
        self._patch(scipy.optimize, "minimize", self._minimize(scipy.optimize.minimize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def _group(self, key: str) -> tuple[int, float]:
        gid = self._group_names.index(key)
        return self.group_calls[gid], self.group_s[gid]

    def _kernel(self, layer: str) -> Counter:
        return self.kernels[self._layers.index(layer)]

    def _self_s(self, layer: str) -> float:
        return self.layer_self_s[self._layers.index(layer)]

    def _under(self, ancestor: str, event: str) -> int:
        key = self._name_ids.get(event, event)
        return self.under[self._name_ids[ancestor]][key]

    def metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` for the counters so far."""
        core, collisions = self._kernel("core"), self._kernel("collisions")
        eb_calls, eb_s = self._group("entropy_balance")
        evals, eval_s = self._group("objective")
        crooks_checks = self._under("experiments.run_crooks", "fluctuation.crooks_check")
        distributions = self._under("experiments.run_crooks", "fluctuation.forward_distribution") + self._under(
            "experiments.run_crooks", "fluctuation.backward_distribution"
        )
        converged = sum(1 for _, _, success in self.optimizer_runs if success)
        useful = sum(1 for restart in self.best_restarts if restart != 0)
        return {
            "core.density_validations": self._group("density")[0],
            "core.density_validation_s": self._group("density")[1],
            "core.unitary_validation_s": self._group("unitary")[1],
            "core.hamiltonian_build_s": self._group("hamiltonian")[1],
            "core.eig_calls": core["eig_calls"],
            "core.eig_calls_ge64": core["eig_ge64"],
            "core.eig_s": core["eig_s"],
            "core.eig_flops_computed": core["eig_flops"],
            "core.entropy_s": self._group("entropy")[1],
            "core.partial_trace_calls": self._group("partial_trace")[0],
            "core.partial_trace_s": self._group("partial_trace")[1],
            "core.haar_unitary_s": self._group("haar")[1],
            "core.relative_entropy_s": self._group("relative_entropy")[1],
            "arrow.entropy_balance_calls": eb_calls,
            "arrow.entropy_balance_s": eb_s,
            "arrow.eigs_per_entropy_balance": _ratio(self._under("arrow.entropy_balance", "eig"), eb_calls),
            "arrow.search_s": self._group("search")[1],
            "arrow.objective_evals": evals,
            "arrow.objective_eval_us": _ratio(eval_s * 1e6, evals),
            "arrow.restarts_converged_ratio": _ratio(converged, len(self.optimizer_runs)),
            "arrow.restarts_useful_ratio": _ratio(useful, len(self.best_restarts)),
            "arrow.spectral_assignment_s": self._group("spectral_assignment")[1],
            "collisions.run_joint_s": self._group("run_joint")[1],
            "collisions.reverse_calls": self._group("reverse")[0],
            "collisions.reverse_s": self._group("reverse")[1],
            "collisions.einsum_calls": collisions["einsum_calls"],
            "collisions.einsum_s": collisions["einsum_s"],
            "collisions.joint_state_mb": self.max_collision_state_dim**2 * 16 / 2**20,
            "fluctuation.crooks_check_s": self._group("crooks_check")[1],
            "fluctuation.distributions_per_trial": _ratio(distributions, crooks_checks),
            "fluctuation.distribution_s": self._group("distribution")[1],
            "fluctuation.random_protocol_s": self._group("random_protocol")[1],
            "fluctuation.heat_flow_trial_s": self._group("heat_flow_trial")[1],
            "fluctuation.damping_heat_s": self._group("damping_heat")[1],
            "experiments.self_s": self._self_s("experiments"),
            "cli.validate_config_s": self._group("validate_config")[1],
            "cli.serialize_s": self._group("serialize")[1],
            "cli.self_s": self._self_s("cli"),
        }

    def counts(self) -> dict:
        """The counters that must repeat exactly for the same inputs."""
        return {
            "calls": {self.names[nid]: n for nid, n in sorted(self.name_calls.items())},
            "eig_dims": dict(sorted(self.eig_dims.items())),
            "kernel_calls": {
                layer: {k: v for k, v in self.kernels[i].items() if not k.endswith("_s")}
                for i, layer in enumerate(self._layers)
                if self.kernels[i]
            },
            "optimizer_runs": len(self.optimizer_runs),
            "objective_nfev": sum(nfev for nfev, _, _ in self.optimizer_runs),
            "optimizer_converged": sum(1 for _, _, success in self.optimizer_runs if success),
            "best_restarts": list(self.best_restarts),
        }

    def layer_table(self) -> dict:
        """Self time and kernel counters per layer."""
        return {
            layer: {"self_s": self.layer_self_s[i], **self.kernels[i]}
            for i, layer in enumerate(self._layers)
            if self.layer_self_s[i] or self.kernels[i]
        }

    def write_spans(self, path) -> None:
        """All spans recorded so far, as a compressed NumPy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            run=np.frombuffer(self.span_run, dtype=np.uint32),
        )
