"""Record the outputs the workloads are checked against, from the root of a
checkout whose outputs are known to be right:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes reference/families.json (relabelling-invariant fields of the toric
and interior instances, at every scale) and reference/survey8_seed0.json (the
full reports of the default-seed survey8 sample, which take about 20 s).
"""

import json

from edgering import analysis, graphs
from edgering.graphs import Graph

import workloads

REF = workloads.REFERENCE_DIR


def main() -> None:
    fam = {"toric": {}, "interior": {}}
    for sizes in workloads.SCALES.values():
        for edges in sizes["toric_graphs"]:
            r = analysis.analyze(Graph(7, edges), run_toric=True,
                                 toric_qmax=workloads.TORIC_QMAX_7)
            fam["toric"][workloads.toric_key(edges)] = workloads.family_fields(r)
        for spec in sizes["interior"]:
            fam["interior"][spec] = workloads.family_fields(analysis.analyze(graphs.make_family(spec)))
    (REF / "families.json").write_text(json.dumps(fam, indent=1) + "\n", encoding="utf-8")

    sizes = workloads.SCALES["full"]
    normal = [c for c in workloads.census(sizes["survey_n"]) if c[3]]
    picks = workloads.sample(normal, workloads.DEFAULT_SEED, sizes["survey_sample"])
    reports = [workloads.comparable(analysis.analyze(h)) for _, h in picks]
    (REF / "survey8_seed0.json").write_text(json.dumps(reports) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
