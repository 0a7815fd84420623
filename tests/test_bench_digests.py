"""The benchmark's seed-11 outputs, pinned: each workload's job, run once
at the full size, passes every check of ``bench/workloads.py`` and gives
the digests below.  A change that moves one changes a result the package
reproduces: a scheme, a bound, a leakage value or a seeded trajectory."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

DIGESTS = {
    "mc-episodes": {
        "trace_csv": "2ff226de42b87101e782862aac2046109bdbfaf918c91710fc5b7edc905e32dc",
        "trajectories": "e1b9fa66eece12f3e5404f1751ca75be1d24f5cfa6fdce6b271a61c8b3612520",
    },
    "horizon-exact": {
        "bounds": "12d1c44e378b1c8d17795f772204681445d95e18c339691c04f1ec279f6b8ed7",
        "mi": "30aa07ea403fc37c92a7c9bfd57e9faae5bc903d34e948f3cf819b0820bbb46f",
        "lp_full": "4aea6cdca18b22a1d1850184d58a6aed5757a69a729403d0921e1576c4d1390e",
        "bounds_lp": "db4c9d861607bed139499401d42239df3a9afc765318397f86e3f37b1fea8d4f",
    },
    "scheme-wire": {
        "scheme_n_law": "7b876791429fd345fcb6d03aaf8672a28358f3f683e476ec68e25e1e61d5137a",
        "scheme_json": "349b410c2aef25fe7edf5db671b4044dca5edf16d21e79c0e5359151a1344b44",
    },
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_11_digests(workload, tmp_path):
    inp = workloads.make_inputs(workload, 11, "full", str(tmp_path))
    rep = workloads.summarize(inp, workloads.JOBS[workload](inp))
    tally, digests = workloads.check_all(inp, [rep])
    assert tally.failed == 0, tally.notes
    assert {**rep["digests"], **digests} == DIGESTS[workload]
