"""Byte pins of the CLI's output: seeded simulate digests, validate_model.py's simulation lines, results/ CSVs.

Each check runs through cli.main, which prints the same bytes as the
installed groupage script.
"""

import hashlib
import runpy
from pathlib import Path
from unittest import mock

import pytest

from groupage import cli

ROOT = Path(__file__).resolve().parent.parent

# (argv, md5 of stdout): each pins one path of the simulator's draw and fold
SIMULATE_PINS = [
    # the one-uniform-a-group stream (flags drawn as u < qbar); its dense
    # m = 30 chunks count their intervals by int8 window sums
    ("--n 120 --p 0.1 --k 4 --cycles 100000 --seeds 0,1,2", "d5df90fef060cf76734d803c1576cbc7"),
    # about 2.4% of its intervals touch a flagged cycle, so it pins the
    # quiet-row path; its gathered blocks are below the window sums' slot
    # bound and take the flat count
    ("--n 120 --p 1e-4 --k 4 --cycles 200000 --seeds 0,1,2", "675b78fa02a353cb394b82324330ba96"),
    # N*m*qbar is about 0.9 a seed, so every run draws only its flagged slots
    # (geometric gaps); seeds 0, 2, 3, 6 and 7 flag 1, 3, 2, 2 and 1 groups,
    # in blocks of a few rows that take the flat count
    ("--n 120 --p 3e-8 --k 4 --cycles 250000 --seeds 0,1,2,3,4,5,6,7", "7f8127ca7de1c9209d72190adf77ba70"),
    # m = 2000 has m^3 >= 2^31, so every dense chunk counts and sums its
    # flags in int64, not int32, unlike the other four; at m >= 128 it takes
    # the flat count
    ("--n 2000 --p 0.5 --k 1 --cycles 300 --seeds 0,1", "e73f615b1a470d36a77bc1afb7df4d44"),
    # m = 127 is the widest group count whose dense chunks count their
    # intervals by int8 window sums: a window holds at most m flags, and 128
    # would wrap
    ("--n 127 --p 0.3 --k 1 --cycles 20000 --seeds 0,1", "3d224ae441eea2e03ec0ffc5b4c071ab"),
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
