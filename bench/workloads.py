"""The four campaign workloads as the CLI arguments of one pass.

Why each workload exists is stated in BENCHMARK.json and bench/README.md.

A pass is one campaign of the workload's stated size, given as the
`antipaths` CLI arguments of each run it makes. A measured run repeats
passes until its time is up. Seeded workloads give pass i of benchmark seed
s the campaign seed 1000*s + i, so the same seed always gives the same
inputs; the other two have fixed inputs and ignore the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

EXTREMAL_KS = (4, 6, 8, 10, 12)


@dataclass(frozen=True)
class Workload:
    name: str
    template: tuple[tuple[str, ...], ...]  # one argv per campaign; "{seed}" is filled in
    records: int  # records one pass must yield

    def argvs(self, seed: int, index: int) -> list[list[str]]:
        campaign_seed = str(1000 * seed + index)
        return [[campaign_seed if a == "{seed}" else a for a in argv] for argv in self.template]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in argv for argv in self.template)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exhaustive-n5",
            (("exhaustive-lemmas", "--n", "5"),),
            records=59049,
        ),
        Workload(
            "audit-k6",
            (("audit", "--k", "6", "--samples", "200", "--seed", "{seed}"),),
            records=200,
        ),
        Workload(
            "extremal-blowup",
            tuple(("tightness", "--k", str(k)) for k in EXTREMAL_KS),
            records=len(EXTREMAL_KS),
        ),
        Workload(
            "verify-k10-j2",
            (("verify-theorem", "--k", "10", "--samples", "2000", "--seed", "{seed}",
              "--jobs", "2"),),
            records=2000,
        ),
    )
}
