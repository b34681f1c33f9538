"""Byte-exact CLI output for seeded scripts: the safety net for hot-path rewrites.

Each case runs one subcommand on a script in tests/golden/ (or on no script,
for a builtin input) and compares the exit code and output with the recorded
file: stdout in ``<case>.out`` for a run that succeeds, stderr in
``<case>.err`` for one that is refused. Subcommands that also report wall
clock (``matmul-bench``'s ``nanos`` column, ``selftest``'s per-check seconds
on stderr) are compared on stdout alone, ``matmul-bench`` without
``nanos``. The recorded files hold the output of the bit-loop pool, the
min-scan scheduler, the whole-state checkpoint encoder and the three
per-variant matmul loops that the byte-map pool, the heap scheduler, the
cached-fragment encoder and the single transposed-column kernel replaced.
Regenerate one only for an intended change of behaviour, for example::

    neurokernel sched-sim --tasks tests/golden/sched_preempt.tasks \
        --threshold 1000 --quantum 100 > tests/golden/sched_preempt.out
    neurokernel matmul-bench --n 24 --trials 1 --seed 0 \
        | cut -d, -f1-4,6 > tests/golden/matmul_bench.out
"""

from pathlib import Path

import pytest

from neurokernel.cli import main
from neurokernel.config import ENV_VAR

GOLDEN = Path(__file__).parent / "golden"

# case: (subcommand and flags, script or None, line appended to the script, exit code)
CASES = {
    "pool_fill": (["pool-demo", "--ops"], "pool_fill.ops", "", 0),
    # 21 free blocks in a row, but none of the 16-block runs is aligned.
    "pool_lpage_refused": (["pool-demo", "--ops"], "pool_fill.ops", "lpage 65536\n", 1),
    "pool_alloc_refused": (["pool-demo", "--ops"], "pool_fill.ops", "alloc 22\n", 1),
    "sched_preempt": (
        ["sched-sim", "--threshold", "1000", "--quantum", "100", "--tasks"],
        "sched_preempt.tasks", "", 0,
    ),
    "orchestrate_demo": (["orchestrate", "--scenario", "demo", "--ticks", "8"], None, "", 0),
    # Two kills: suspect, failed, rerouted and dropped work, refused inputs,
    # and twelve checkpoint rounds over tags with quotes, backslashes and
    # non-ASCII text.
    "orchestrate_failover": (
        ["orchestrate", "--ticks", "60", "--seed", "3", "--scenario"],
        "orchestrate_failover.scenario", "", 0,
    ),
    "accel_demo": (["accel-demo", "--n", "8"], None, "", 0),
    "compute_div": (["compute", "--a", "6", "--b", "3", "--op", "div"], None, "", 0),
    "rabab_demo": (["rabab-demo", "--iterations", "50", "--seed", "0"], None, "", 0),
    "rabab_draw": (["rabab-draw", "--width", "4", "--height", "2", "--intent", "pixel:3,1,#FF8000"],
                   None, "", 0),
    # x = 4 is one past the last column of a 4-wide framebuffer.
    "rabab_draw_refused": (
        ["rabab-draw", "--width", "4", "--height", "2", "--intent", "pixel:4,1,#FF8000"],
        None, "", 1,
    ),
}


def _drop_nanos(out: str) -> str:
    """matmul-bench CSV without its fifth column, the wall-clock nanos."""
    rows = (line.split(",") for line in out.splitlines())
    return "".join(",".join(row[:4] + row[5:]) + "\n" for row in rows)


# case: (subcommand and flags, filter applied to stdout); stderr is not compared
TIMED = {
    "matmul_bench": (["matmul-bench", "--n", "24", "--trials", "1", "--seed", "0"], _drop_nanos),
    "selftest": (["selftest", "--seed", "0"], str),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    argv, script, extra, expected_code = CASES[case]
    if script is not None:
        path = GOLDEN / script
        if extra:
            path = tmp_path / script
            path.write_text((GOLDEN / script).read_text(encoding="utf-8") + extra, encoding="utf-8")
        argv = [*argv, str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == expected_code
    if expected_code == 0:
        assert (out, err) == ((GOLDEN / f"{case}.out").read_text(encoding="utf-8"), "")
    else:
        assert (out, err) == ("", (GOLDEN / f"{case}.err").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(TIMED))
def test_timed_cli_stdout_matches_golden(case, capsys, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    argv, keep = TIMED[case]
    assert main(argv) == 0
    assert keep(capsys.readouterr().out) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
