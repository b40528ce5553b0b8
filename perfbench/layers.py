"""Which darkfilter functions a run times, and what their spans add up to.

The layers are the package modules.  A traced run wraps every public
module-level function of each layer, plus three FiltrationSetup methods,
in every module namespace that holds them, so calls between modules and
within a module both show as nested spans.  Nothing in the package is
edited.  ``darkfilter._kernels`` is not wrapped: the step kernel's time
stays inside run_filtration and is reported as ``filtration.run_s``.

An untraced run wraps only the engine set-up calls, which is what the
end-to-end ``setup_s`` needs.
"""

from __future__ import annotations

import inspect
import os

from spans import self_costs

LAYERS = ("cli", "config", "basis", "spin_model", "filtration", "spectral",
          "experiments", "output")

SETUP_FUNCTIONS = ("filtration.reduced_setup", "filtration.full_setup",
                   "filtration.generic_setup")

TRACED_METHODS = ("filtration.FiltrationSetup.to_eigen",
                  "filtration.FiltrationSetup.from_eigen",
                  "filtration.FiltrationSetup.string_rows")

# called once per CSV cell: a span per call would cost more than the call
UNWRAPPED = ("output.format_cell",)

MB = 1e6
KIB = 1024

# span name -> per-layer time metric; other spans fall back to their module
SPAN_METRIC = {
    "cli.import": "cli.import_s",
    "spin_model.build_hamiltonian": "spin_model.hamiltonian_s",
    "spin_model.build_tower": "spin_model.tower_s",
    "filtration.reduced_setup": "filtration.setup_s",
    "filtration.full_setup": "filtration.setup_s",
    "filtration.generic_setup": "filtration.setup_s",
    "filtration.run_filtration": "filtration.run_s",
    "filtration.FiltrationSetup.string_rows": "filtration.string_s",
    "filtration.FiltrationSetup.to_eigen": "filtration.projection_s",
    "filtration.FiltrationSetup.from_eigen": "filtration.projection_s",
    "filtration.spectral_decomposition": "filtration.spectral_decomposition_s",
    "filtration.dark_projection": "filtration.dark_projection_s",
    "output.emit_csv": "output.csv_s",
    "output.write_metadata": "output.metadata_s",
}
MODULE_METRIC = {
    "cli": "cli.self_s",
    "config": "config.s",
    "basis": "basis.s",
    "spin_model": "spin_model.other_s",
    "filtration": "filtration.other_s",
    "spectral": "spectral.s",
    "experiments": "experiments.self_s",
    "output": "output.other_s",
}
TIME_METRICS = frozenset(SPAN_METRIC.values()) | frozenset(
    MODULE_METRIC.values())
RSS_METRIC = {
    "filtration.setup_s": "filtration.setup_rss_mb",
    "filtration.run_s": "filtration.run_rss_mb",
    "filtration.string_s": "filtration.string_rss_mb",
}

# (name, unit, kind): "measured" comes from a clock or the kernel's rusage,
# "counted" from arguments and results at a layer boundary, "computed"
# from array sizes or from other metrics.
PER_LAYER = (
    ("cli.import_s", "s", "measured"),
    ("cli.self_s", "s", "measured"),
    ("config.s", "s", "measured"),
    ("basis.s", "s", "measured"),
    ("experiments.self_s", "s", "measured"),
    ("spin_model.hamiltonian_s", "s", "measured"),
    ("spin_model.tower_s", "s", "measured"),
    ("spin_model.other_s", "s", "measured"),
    ("filtration.setup_s", "s", "measured"),
    ("filtration.setup_rss_mb", "MB", "measured"),
    ("filtration.engine_dim", "count", "counted"),
    ("filtration.max_block_dim", "count", "counted"),
    ("filtration.eigvec_mb", "MB", "computed"),
    ("filtration.run_s", "s", "measured"),
    ("filtration.steps", "count", "counted"),
    ("filtration.us_per_step", "us", "computed"),
    ("filtration.run_rss_mb", "MB", "measured"),
    ("filtration.string_s", "s", "measured"),
    ("filtration.string_samples", "count", "counted"),
    ("filtration.ms_per_string_sample", "ms", "computed"),
    ("filtration.string_rss_mb", "MB", "measured"),
    ("filtration.projection_s", "s", "measured"),
    ("filtration.spectral_decomposition_s", "s", "measured"),
    ("filtration.dark_projection_s", "s", "measured"),
    ("filtration.other_s", "s", "measured"),
    ("spectral.s", "s", "measured"),
    ("output.csv_s", "s", "measured"),
    ("output.csv_rows", "count", "counted"),
    ("output.csv_mb", "MB", "counted"),
    ("output.us_per_row", "us", "computed"),
    ("output.metadata_s", "s", "measured"),
    ("output.other_s", "s", "measured"),
    ("process.wall_s", "s", "measured"),
    ("process.cpu_s", "s", "measured"),
    ("process.cpu_per_wall", "ratio", "computed"),
    ("trace.wall_s", "s", "measured"),
    ("trace.overhead_s", "s", "computed"),
    ("trace.unaccounted_s", "s", "computed"),
    ("trace.spans", "count", "counted"),
    ("host.probe_s", "s", "measured"),
)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _setup_counts(args, kwargs, result):
    setup = result[0] if isinstance(result, tuple) else result
    blocks = setup.sector_eigs or ()
    return {
        "engine_dim": int(setup.dimension),
        "max_block_dim": max((b.vectors.shape[0] for b in blocks), default=0),
        "eigvec_bytes": sum(b.vectors.nbytes for b in blocks),
    }


def _string_counts(args, kwargs, result):
    rows = _arg(args, kwargs, 1, "rows")
    return {"samples": 1 if getattr(rows, "ndim", 2) == 1 else len(rows)}


COUNTS = {
    "filtration.reduced_setup": _setup_counts,
    "filtration.full_setup": _setup_counts,
    "filtration.generic_setup": _setup_counts,
    "filtration.run_filtration":
        lambda args, kwargs, result: {"steps": int(result.steps.size - 1)},
    "filtration.FiltrationSetup.string_rows": _string_counts,
    "output.emit_csv": lambda args, kwargs, result: {
        "rows": len(_arg(args, kwargs, 2, "rows")),
        "bytes": os.path.getsize(result),
    },
}


def install(tracer, package, names=None):
    """Wrap the layer functions (or only `names`) where they are looked up.

    `package` is the imported ``darkfilter`` package with its modules
    loaded.
    """
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or name in UNWRAPPED
                    or (names is not None and name not in names)):
                continue
            wrapped[obj] = tracer.wrap(name, obj, COUNTS.get(name))
    for module in [package, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    for name in TRACED_METHODS:
        if names is not None and name not in names:
            continue
        layer, cls_name, method = name.split(".")
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method),
                                         COUNTS.get(name)))


def _metric_of(name):
    return SPAN_METRIC.get(name) or MODULE_METRIC[name.split(".")[0]]


def layer_metrics(spans):
    """Per-layer metrics of one traced run, from its spans."""
    out = {name: 0.0 for name, unit, kind in PER_LAYER
           if not name.startswith(("process.", "host."))
           and name not in ("trace.wall_s", "trace.overhead_s",
                            "trace.unaccounted_s")}
    for span, (self_s, self_kb) in zip(spans, self_costs(spans)):
        metric = _metric_of(span["name"])
        out[metric] += self_s
        if metric in RSS_METRIC:
            out[RSS_METRIC[metric]] += self_kb * KIB / MB
        counts = span["counts"] or {}
        if metric == "filtration.setup_s":
            out["filtration.engine_dim"] = max(out["filtration.engine_dim"],
                                               counts["engine_dim"])
            out["filtration.max_block_dim"] = max(
                out["filtration.max_block_dim"], counts["max_block_dim"])
            out["filtration.eigvec_mb"] = max(out["filtration.eigvec_mb"],
                                              counts["eigvec_bytes"] / MB)
        out["filtration.steps"] += counts.get("steps", 0)
        out["filtration.string_samples"] += counts.get("samples", 0)
        out["output.csv_rows"] += counts.get("rows", 0)
        out["output.csv_mb"] += counts.get("bytes", 0) / MB
    out["filtration.us_per_step"] = _ratio(out["filtration.run_s"] * 1e6,
                                           out["filtration.steps"])
    out["filtration.ms_per_string_sample"] = _ratio(
        out["filtration.string_s"] * 1e3, out["filtration.string_samples"])
    out["output.us_per_row"] = _ratio(out["output.csv_s"] * 1e6,
                                      out["output.csv_rows"])
    out["trace.spans"] = len(spans)
    return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def accounted_s(metrics):
    """Sum of the self times of one traced run, every layer included."""
    return sum(value for name, value in metrics.items()
               if name in TIME_METRICS)
