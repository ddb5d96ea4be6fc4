"""Names and units of every metric the benchmark prints, and the inputs the
names are built from.  Imports nothing from defo5, so run.py can check
its own output against this list without loading the program."""

WORKLOADS = ("certify-full", "exhaustive-scan", "series-deep")

# Ring descriptor -> the slug used in metric names.
SLUGS = {
    "F5": "f5", "F25": "f25", "Z/25": "z25", "Z/125": "z125",
    "Z/5^4": "z5_4", "Z/5^6": "z5_6", "Z/5^7": "z5_7",
    "F5[e]/(e^2)": "e2", "F5[e]/(e^3)": "e3", "F5[e]/(e^4)": "e4",
    "F5[e1]/(e1^2)[e2]/(e2^2)": "e1e2", "F25[e]/(e^2)": "f25e2",
    "cyclo(3)": "cyclo3", "cyclo(4)": "cyclo4", "cyclo(5)": "cyclo5",
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The steps of `defo5 verify-all --profile full`, in report order, with the
# slug of each step's `verify.<slug>_s` metric.
FULL_STEPS = {
    "order": "order",
    "conductor": "conductor",
    "iterates[F5]": "iterates.f5",
    "iterates[F25]": "iterates.f25",
    "iterates[F5[e]/(e^2)]": "iterates.e2",
    "iterates[cyclo(3)]": "iterates.cyclo3",
    "versal-check[cyclo(2)]": "versal.cyclo2",
    "versal-check[cyclo(3)]": "versal.cyclo3",
    "versal-check[cyclo(4)]": "versal.cyclo4",
    "versal-check[cyclo(5)]": "versal.cyclo5",
    "tangent": "tangent",
    "universality[F5[e]/(e^2)]": "universality.e2",
    "universality[F5[e]/(e^3)]": "universality.e3",
    "proof-chain": "proofchain",
    "obstruction": "obstruction",
    "coeff-eqs": "coeff_eqs",
}
# `--profile quick`, which --smoke runs instead.
QUICK_STEPS = ("order", "conductor", "iterates[F5]", "iterates[F5[e]/(e^2)]",
               "versal-check[cyclo(2)]", "versal-check[cyclo(3)]", "tangent",
               "universality[F5[e]/(e^2)]", "proof-chain", "obstruction",
               "coeff-eqs")

# Inputs of the per-layer suite (layers.py).
ELEMENT_RINGS = ("F5", "F25", "Z/125", "F5[e]/(e^3)", "cyclo(3)", "cyclo(5)")
SERIES_RINGS = ("F5[e]/(e^2)", "cyclo(3)")
SERIES_OPS = ("mul", "div", "sqrt", "compose", "comp_inverse")
TABLE_RINGS = {125: "F5[e]/(e^3)", 625: "F5[e]/(e^4)", 3125: "cyclo(5)"}
UNIVERSALITY = (("F5[e]/(e^3)", 4), ("cyclo(3)", 4), ("F25[e]/(e^2)", 3))
CHECK_RINGS = ("F5[e]/(e^4)", "F5[e1]/(e1^2)[e2]/(e2^2)", "F25[e]/(e^2)",
               "cyclo(4)")
HOM_POINT_RINGS = ("F5[e]/(e^4)", "cyclo(5)")
OBSTRUCTION = ("Z/25", "Z/5^4", "Z/5^6")

# The layers of defo5, as the tracer attributes self time to them.
LAYERS = ("artin.rings", "artin.tables", "series", "nottingham",
          "deformation.versal", "deformation.tangent",
          "deformation.equivalence", "deformation.proofchain",
          "deformation.obstruction", "symbolic", "gf5", "cli")

SUITE = {
    **{f"rings.{op}_us.{SLUGS[d]}": "us" for op in ("mul", "add", "inv", "sqrt")
       for d in ELEMENT_RINGS},
    "rings.build_s.z5_7": "s",
    **{f"tables.build_s.{n}": "s" for n in TABLE_RINGS},
    "tables.bytes.3125": "B",
    **{f"series.{op}_us.{SLUGS[d]}.{p}": "us" for op in SERIES_OPS
       for d in SERIES_RINGS for p in (16, 32)},
    **{f"nottingham.power5_ms.{SLUGS[d]}.{p}": "ms" for d in SERIES_RINGS
       for p in (16, 32)},
    **{f"tangent.cocycle_s.{p}": "s" for p in (16, 24, 32)},
    "tangent.report_s": "s",
    **{f"equivalence.universality_s.{SLUGS[d]}": "s" for d, _ in UNIVERSALITY},
    "equivalence.diagonal_pair_s.e3": "s",
    "equivalence.offdiag_pair_s.e3": "s",
    "equivalence.conjugators.e3": "count",
    **{f"proofchain.check_s.{SLUGS[d]}": "s" for d in CHECK_RINGS},
    "proofchain.scan_s": "s",
    "proofchain.witnesses_per_s": "1/s",
    "proofchain.scan_jobs2_s": "s",
    "proofchain.jobs2_speedup": "x",
    **{f"versal.hom_points_s.{SLUGS[d]}": "s" for d in HOM_POINT_RINGS},
    **{f"obstruction.check_s.{SLUGS[d]}": "s" for d in OBSTRUCTION},
    "gf5.nullspace_ms.32": "ms",
    "cli.refusal_s.universality_cyclo5": "s",
    "symbolic.expand_s": "s",
    "symbolic.verify_displayed_s": "s",
    "symbolic.consistency_ms_per_witness": "ms",
}
STEPS = {f"verify.{slug}_s": "s" for slug in FULL_STEPS.values()}
TRACE = {**{f"self_pct.{layer}": "%" for layer in LAYERS},
         "self_pct.unattributed": "%",
         "trace.overhead_s": "s",
         "trace.overhead_pct": "%",
         "trace.calls": "count"}
PER_LAYER = {**SUITE, **STEPS, **TRACE, "fail_ratio": "ratio"}
