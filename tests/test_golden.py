"""Byte-exact CLI output for seeded scripts: the safety net for pool and scheduler rewrites.

Each case runs one subcommand on a script in tests/golden/ and compares the
exit code and output with the recorded file: stdout in ``<case>.out`` for a
run that succeeds, stderr in ``<case>.err`` for one that is refused. The
recorded files hold the output of the bit-loop pool and the min-scan
scheduler that the byte-map pool and the heap scheduler replaced. Regenerate
one only for an intended change of behaviour, for example::

    neurokernel sched-sim --tasks tests/golden/sched_preempt.tasks \
        --threshold 1000 --quantum 100 > tests/golden/sched_preempt.out
"""

from pathlib import Path

import pytest

from neurokernel.cli import main
from neurokernel.config import ENV_VAR

GOLDEN = Path(__file__).parent / "golden"

# case: (subcommand and flags, script, line appended to the script, exit code)
CASES = {
    "pool_fill": (["pool-demo", "--ops"], "pool_fill.ops", "", 0),
    # 21 free blocks in a row, but none of the 16-block runs is aligned.
    "pool_lpage_refused": (["pool-demo", "--ops"], "pool_fill.ops", "lpage 65536\n", 1),
    "pool_alloc_refused": (["pool-demo", "--ops"], "pool_fill.ops", "alloc 22\n", 1),
    "sched_preempt": (
        ["sched-sim", "--threshold", "1000", "--quantum", "100", "--tasks"],
        "sched_preempt.tasks", "", 0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    argv, script, extra, expected_code = CASES[case]
    path = GOLDEN / script
    if extra:
        path = tmp_path / script
        path.write_text((GOLDEN / script).read_text() + extra)
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert code == expected_code
    if expected_code == 0:
        assert (out, err) == ((GOLDEN / f"{case}.out").read_text(), "")
    else:
        assert (out, err) == ("", (GOLDEN / f"{case}.err").read_text())
