"""Per-layer tracing from outside the package.

While installed, every public function defined in a ``cavqed`` module is
replaced by a counting, timing wrapper in each module namespace that holds
it, which is where callers look it up (``cavqed.cli.assemble_hamiltonian``,
``cavqed.system.eval_fields``, ``cavqed.hom.transfer_functions``, ...).  The
layer of a function is the module that defines it, so ``eval_fields`` counts
as ``cavity.eval_fields`` whether ``system``, ``ports`` or ``perturbation``
called it.  Nothing in the package is edited; :meth:`Tracer.uninstall`
puts the original objects back.

A wrapper records the call count and the inclusive busy time of its
function, the caller-callee edge (the span that caused it), and the time
spent in calls made directly from untraced code (``top_s``), which is what
``cli.self_s`` subtracts from an operation's wall time.  A few wrappers also
read the arguments or the result to count work:

* ``system.assemble_hamiltonian``: bytes and dimension of each Hamiltonian;
* ``system.dressed_spectrum``: labels assigned (one per basis state);
* ``system.dispersive_params``: distinct labels read from the spectrum;
* ``hom.g2`` and ``hom.g2_integrated``: frequency bins of each evaluation.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Modules whose public functions are layers; ``cli`` is the caller whose
#: own time is ``cli.self_s``.
LAYERS = ("cavity", "config", "external", "hom", "perturbation", "ports",
          "system", "transmon")

_CORRELATIONS = ("hom.g2", "hom.g2_integrated")


class Tracer:
    """Counting wrappers around the public functions of the ``cavqed`` layers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Clear every count and time (called before each traced pass)."""
        with self._lock:
            self.calls: dict[str, int] = defaultdict(int)
            self.seconds: dict[str, float] = defaultdict(float)
            self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
            self.top_s = 0.0
            self.hamiltonian_bytes = 0
            self.max_dim = 0
            self.labels_assigned = 0
            self.labels_read = 0
            self.bins_x_evals = 0

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every ``cavqed`` namespace."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cavqed.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name == "cavqed" or name.startswith("cavqed.")]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
        spectrum_cls = sys.modules["cavqed.system"].DressedSpectrum
        for name in ("energy", "overlap"):
            self._patch(spectrum_cls, name, self._wrap_label_read(getattr(spectrum_cls, name)))

    def uninstall(self) -> None:
        """Restore the original functions."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # --- wrappers ----------------------------------------------------------------

    def _wrap(self, func, key: str):
        local = self._local

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            local.current = key
            reading = None
            if key == "system.dispersive_params":
                reading = local.reading = set()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.current = parent
                if reading is not None:
                    local.reading = None
            with self._lock:
                self.calls[key] += 1
                self.seconds[key] += elapsed
                edge = self.edges[(parent or "cli", key)]
                edge[0] += 1
                edge[1] += elapsed
                if parent is None:
                    self.top_s += elapsed
                if key == "system.assemble_hamiltonian":
                    self.hamiltonian_bytes += result.nbytes
                    self.max_dim = max(self.max_dim, result.shape[0])
                elif key == "system.dressed_spectrum":
                    self.labels_assigned += len(result.eigen_index)
                elif reading is not None:
                    self.labels_read += len(reading)
                elif key in _CORRELATIONS:
                    grid = kwargs["grid"] if "grid" in kwargs else args[4]
                    self.bins_x_evals += grid.n_bins
            return result

        return traced

    def _wrap_label_read(self, method):
        local = self._local

        @functools.wraps(method)
        def traced(spectrum, label):
            reading = getattr(local, "reading", None)
            if reading is not None:
                reading.add(tuple(int(x) for x in label))
            return method(spectrum, label)

        return traced

    # --- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and times accumulated since the last :meth:`reset`."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "edges": {f"{a} -> {b}": list(v) for (a, b), v in self.edges.items()},
                "top_s": self.top_s,
                "hamiltonian_bytes": self.hamiltonian_bytes,
                "max_dim": self.max_dim,
                "labels_assigned": self.labels_assigned,
                "labels_read": self.labels_read,
                "bins_x_evals": self.bins_x_evals,
            }
