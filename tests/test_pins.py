"""CI's pins and bounds: seeded simulate digests, validate_model.py's simulation lines, results/ CSVs,
the traced memory of the largest admitted runs, and the workflow's Tier-1 steps.

Each check runs through cli.main, which prints the same bytes as the
installed groupage script, or through the library.
"""

import hashlib
import re
import runpy
from pathlib import Path
from unittest import mock

import pytest

from groupage import cli, sim

from tracing import cold_traced

ROOT = Path(__file__).resolve().parent.parent

# (argv, md5 of stdout): each pins one path of the simulator's draw and fold
SIMULATE_PINS = [
    # the one-uniform-a-group stream (flags drawn as u < qbar); its dense
    # m = 30 chunks fold whole
    ("--n 120 --p 0.1 --k 4 --cycles 100000 --seeds 0,1,2", "d5df90fef060cf76734d803c1576cbc7"),
    # about 2.4% of its intervals touch a flagged cycle, so it pins the
    # quiet-row path and the fold of gathered blocks
    ("--n 120 --p 1e-4 --k 4 --cycles 200000 --seeds 0,1,2", "675b78fa02a353cb394b82324330ba96"),
    # N*m*qbar is about 0.9 a seed, so every run draws only its flagged slots
    # (geometric gaps); seeds 0, 2, 3, 6 and 7 flag 1, 3, 2, 2 and 1 groups,
    # in blocks of a few rows
    ("--n 120 --p 3e-8 --k 4 --cycles 250000 --seeds 0,1,2,3,4,5,6,7", "7f8127ca7de1c9209d72190adf77ba70"),
    # m = 2000 has m^3 >= 2^31, so every dense chunk sums C, C^2 and C*F
    # in int64, not int32, unlike the others
    ("--n 2000 --p 0.5 --k 1 --cycles 300 --seeds 0,1", "e73f615b1a470d36a77bc1afb7df4d44"),
    # m = 127 folds its dense chunks by uint8 window sums, as m = 30 does
    ("--n 127 --p 0.3 --k 1 --cycles 20000 --seeds 0,1", "3d224ae441eea2e03ec0ffc5b4c071ab"),
    # m = 256 is the narrowest group count whose window sums take uint16:
    # a window holds at most m flags, and uint8 would wrap to 0
    ("--n 256 --p 0.3 --k 1 --cycles 20000 --seeds 0,1", "cb4789676adca77625ff7689e7f12e50"),
]


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def _run_script(name: str):
    """Run scripts/<name> as __main__; its exit code."""
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    return exit_info.value.code


@pytest.mark.parametrize("args, digest", SIMULATE_PINS)
def test_seeded_simulate_reproduces_its_digest(args, digest, capsys):
    assert cli.main(["simulate", *args.split()]) == cli.EXIT_OK
    assert _md5(capsys.readouterr().out) == digest


def test_validate_model_script_exits_0_and_reproduces_its_simulation_lines(capsys):
    # the oracle lines are left out: their error digits go through np.exp and
    # np.power, whose SIMD loops numpy picks by CPU, so their last bits can differ
    assert _run_script("validate_model.py") == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS: simulation", "FAIL: simulation"))]
    assert len(lines) == 2 * 3 * 4
    assert _md5("".join(line + "\n" for line in lines)) == "68f8110af4d482f740681d359dd3d858"


@pytest.mark.parametrize(
    "script", ["age_vs_group_size.py", "age_vs_population.py", "metric_comparison.py", "optimal_size_sweep.py"]
)
def test_script_argv_reproduces_the_committed_results_csv(script, tmp_path):
    # the script's own argv, with its --out moved into tmp_path
    record = mock.Mock(return_value=cli.EXIT_OK)
    with mock.patch.object(cli, "main", record):
        assert _run_script(script) == cli.EXIT_OK
    record.assert_called_once()
    (argv,) = record.call_args.args
    committed = Path(argv[argv.index("--out") + 1])
    assert committed.parent == ROOT / "results"
    out = tmp_path / committed.name
    argv[argv.index("--out") + 1] = str(out)
    assert cli.main(argv) == cli.EXIT_OK
    assert out.read_bytes() == committed.read_bytes()


MiB = 2**20

# Traced-memory checks at the largest shapes the int64 check admits, as
# (call, bound in bytes): ["groupage", command line] runs cli.main, [name,
# [n, p, k, *args]] runs groupage.<name>(validate_config(n, p, k), *args).
# Each step runs its checks in order in one fresh interpreter, which traces
# what a warm test process may not.
COLD_MEMORY_STEPS = {
    # the n = 20 enumeration walks its codes in blocks, the simulator keeps no
    # per-cycle series, and neither the simulator nor the convolution oracle
    # holds a k-long array, so no run grows with its input: 3.50, 0.01, 0.01 MiB
    "validate-under-8MiB": [
        (["groupage", "validate --n 20 --p 0.3 --k 1 --cycles 50000"], 8 * MiB),
        (["groupage", "validate --n 1 --p 1e-9 --k 1 --cycles 1000000"], 8 * MiB),
        (["groupage", "validate --n 1664509 --p 0.5 --k 1664509 --cycles 2"], 8 * MiB),
    ],
    # N*m*qbar is about 0.92 at m = 1321122, so each run draws only its flagged
    # slots; seeds 0, 3, 2 and 25 flag 1, 2, 3 and 4 cycles. Each flagged cycle
    # is a stretch of its own, whose fold block holds at most two rows of m
    # groups, and validate frees each seed's summary before the next seed's run,
    # so four seeds trace what one run does: 110.9-111.6 MiB
    "slot-drawn-under-120MiB": [
        *((["simulate_age", [1321122, 7e-9, 1, 100, seed]], 120 * MiB) for seed in (0, 2, 3, 25)),
        (["groupage", "validate --n 1321122 --p 7e-9 --k 1 --cycles 100 --seeds 0,2,3,25"], 120 * MiB),
    ],
    # the "multi-chunk" pin of tests/test_sim.py: three whole chunks of m = 1 at p = 0.3 and five
    # cycles, every chunk dense. Its census holds a chunk's flags and its rows' two-byte codes:
    # 3.98 MiB, against 12.04 MiB for the window sums and einsums that folded it before
    "dense-m1-multi-chunk-under-6MiB": [(["simulate_age", [1, 0.3, 1, 3 * sim.CHUNK_DRAWS + 5, 1]], 6 * MiB)],
    # m = 1321122 at k = 1 is the largest run validate admits; an oracle off by
    # more than 1e-9 makes it exit 2, and a pmf over all m + 1 counts would trace
    # about 50 MiB: 2.57 MiB for the oracle, 101.5 MiB for validate
    "widest-validate-under-budget": [
        (["convolution_oracle", [1321122, 0.5, 1]], 8 * MiB),
        (["groupage", "validate --n 1321122 --p 0.5 --k 1 --cycles 50 --seeds 0"], cli.MEMORY_BUDGET_BYTES),
    ],
}


@pytest.mark.parametrize("checks", COLD_MEMORY_STEPS.values(), ids=COLD_MEMORY_STEPS)
def test_largest_runs_trace_under_their_bounds_in_a_fresh_interpreter(checks):
    records = cold_traced([call for call, _ in checks])
    for (call, bound), (peak, code, out) in zip(checks, records, strict=True):
        assert peak < bound, (call, peak / MiB)
        if call[0] == "groupage":
            assert code == cli.EXIT_OK, (call, out)
            assert any(line.startswith("PASS: closed-form vs convolution-oracle") for line in out.splitlines()), out


def test_workflow_runs_tier1_in_both_jobs_and_traces_nothing_itself():
    # read as text, since CI installs no YAML parser; every traced bound lives in Tier-1
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    jobs = re.split(r"^  (?=[\w-]+:$)", workflow.split("\njobs:\n", 1)[1], flags=re.M)[1:]
    assert [job.split(":", 1)[0] for job in jobs] == ["tests", "numpy-floor"]
    for job in jobs:
        assert f"run: {command}\n" in job
    assert "tracemalloc" not in workflow


def test_a_cold_step_past_its_timeout_fails_instead_of_hanging():
    # no fresh interpreter imports numpy in a millisecond, so the child is killed and the check fails
    with pytest.raises(AssertionError, match="no records after 0.001 s; stderr: "):
        cold_traced([["simulate_age", [4, 0.5, 2, 10, 0]]], timeout=0.001)
