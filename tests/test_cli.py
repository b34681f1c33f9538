import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import neurokernel
from neurokernel.cli import main
from neurokernel.config import ENV_VAR, config_from, directives, parse_config
from neurokernel.errors import InvalidArgument
from neurokernel.mempool import PoolConfig
from neurokernel.orchestrator import parse_scenario, run_scenario
from neurokernel.scheduler import SchedulerConfig
from neurokernel.tensor import MatmulConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_exact_division(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "6", "--b", "3", "--op", "div")
        assert (code, out) == (0, "2\n")

    def test_division_by_zero_exits_one_with_kind(self, capsys):
        code, out, err = run(capsys, "compute", "--a", "1", "--b", "0", "--op", "div")
        assert code == 1
        assert out == ""
        assert "InvalidArgument" in err

    def test_negative_multiply(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "7", "--b", "-2", "--op", "mul")
        assert (code, out) == (0, "-14\n")


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err.lower() or "invalid choice" in err

    def test_no_subcommand_exits_two(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "compute", "--a", "1", "--op", "div")
        assert code == 2


class TestMatmulBench:
    def test_csv_shape_and_checksum_reproducibility(self, capsys):
        code, out1, _ = run(capsys, "matmul-bench", "--n", "6", "--trials", "2", "--seed", "3")
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == "variant,n,block,workers,nanos,checksum"
        assert len(lines) == 1 + 3 * 2
        _, out2, _ = run(capsys, "matmul-bench", "--n", "6", "--trials", "2", "--seed", "3")
        checksums1 = [line.split(",")[-1] for line in lines[1:]]
        checksums2 = [line.split(",")[-1] for line in out2.strip().splitlines()[1:]]
        assert checksums1 == checksums2
        assert len(set(checksums1)) == 1  # all variants agree on the result

    @pytest.mark.parametrize("flag, value", [("--block", "0"), ("--workers", "9")])
    def test_invalid_config_fails_before_any_output(self, capsys, flag, value):
        code, out, err = run(capsys, "matmul-bench", "--n", "4", "--trials", "1", flag, value)
        assert (code, out) == (1, "")
        assert "InvalidArgument" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_a_trial_count_below_one_fails_before_any_output(self, capsys, trials):
        code, out, err = run(capsys, "matmul-bench", "--n", "4", "--trials", trials)
        assert (code, out) == (1, "")
        assert err == f"InvalidArgument: trials must be an int >= 1, got {trials}\n"


class TestPoolDemo:
    def test_replay_and_hex_bitmap(self, capsys, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("alloc 4\nalloc 2\nfree 1\nalloc 1\n")
        config = tmp_path / "pool.conf"
        config.write_text("pool_bytes = 32768\nblock_bytes = 4096\n")
        code, out, _ = run(capsys, "pool-demo", "--ops", str(ops), "--config", str(config))
        assert code == 0
        # 8 blocks: alloc4 @0, alloc2 @4, free #1, alloc1 @0 -> bits 10001100
        assert out == "8c\n"

    def test_oom_in_script_exits_one(self, capsys, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("alloc 9\n")
        config = tmp_path / "pool.conf"
        config.write_text("pool_bytes = 32768\nblock_bytes = 4096\n")
        code, _, err = run(capsys, "pool-demo", "--ops", str(ops), "--config", str(config))
        assert code == 1
        assert "OutOfMemory" in err

    def test_missing_ops_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "pool-demo", "--ops", str(tmp_path / "absent.txt"))
        assert code == 1
        assert "InvalidArgument" in err

    def test_env_var_config_fallback(self, capsys, tmp_path, monkeypatch):
        ops = tmp_path / "ops.txt"
        ops.write_text("alloc 8\n")
        config = tmp_path / "pool.conf"
        config.write_text("pool_bytes = 32768\nblock_bytes = 4096\n")
        monkeypatch.setenv(ENV_VAR, str(config))
        code, out, _ = run(capsys, "pool-demo", "--ops", str(ops))
        assert code == 0
        assert out == "ff\n"

    def test_large_page_op_respects_alignment(self, capsys, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("alloc 1\nlpage 16384\n")  # block 0 taken, page lands at block 4
        config = tmp_path / "pool.conf"
        config.write_text(
            "pool_bytes = 32768\nblock_bytes = 4096\nlarge_page_classes = 16384\n"
        )
        code, out, _ = run(capsys, "pool-demo", "--ops", str(ops), "--config", str(config))
        assert code == 0
        assert out == "8f\n"  # bits 10001111

    @pytest.mark.parametrize("ops, error", [
        ("alloc 1\nfree 1\nfree 1\n", "ops line 3: no live allocation #1"),
        ("alloc 1\nalloc 1\nfree 0\n", "ops line 3: no live allocation #0"),
        ("alloc 1\nbogus 1\n", "ops line 2: unrecognized op 'bogus 1'"),
        ("alloc x\n", "ops line 1: malformed 'alloc x'"),
    ], ids=["freed-twice", "free-zero", "unknown-op", "non-integer-count"])
    def test_a_bad_op_is_one_error_line_and_no_output(self, capsys, tmp_path, ops, error):
        script = tmp_path / "ops.txt"
        script.write_text(ops)
        assert run(capsys, "pool-demo", "--ops", str(script)) == (1, "", f"InvalidArgument: {error}\n")


class TestAccelDemo:
    def test_device_matches_host(self, capsys):
        code, out, _ = run(capsys, "accel-demo", "--n", "5")
        assert (code, out) == (0, "device==host: true\n")


class TestSchedSim:
    def test_completion_order_and_priorities(self, capsys, tmp_path):
        tasks = tmp_path / "tasks.txt"
        tasks.write_text(
            "task a prio 10 cycles 5\n"
            "task b prio 5 cycles 5\n"
            "task c prio 10 cycles 5\n"
        )
        code, out, _ = run(capsys, "sched-sim", "--tasks", str(tasks))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "task_id,completion_index,final_priority,consumed_cycles"
        order = [line.split(",")[0] for line in lines[1:]]
        assert order == ["b", "a", "c"]

    def test_deprioritization_visible_in_report(self, capsys, tmp_path):
        tasks = tmp_path / "tasks.txt"
        tasks.write_text("task hog prio 10 cycles 50\n")
        code, out, _ = run(
            capsys, "sched-sim", "--tasks", str(tasks), "--threshold", "10", "--quantum", "20"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "hog"
        assert row[2] == "20"  # 10 + penalty
        assert row[3] == "50"

    def test_malformed_task_line_exits_one(self, capsys, tmp_path):
        tasks = tmp_path / "tasks.txt"
        tasks.write_text("task a prio\n")
        code, _, err = run(capsys, "sched-sim", "--tasks", str(tasks))
        assert code == 1
        assert "InvalidArgument" in err

    @pytest.mark.parametrize("tasks, config, error", [
        ("task a prio x cycles 5\n", "", "tasks line 1: malformed numbers"),
        ("task a prio 1 cycles 5\n", "quantum = five\n",
         "config line 1: quantum needs integer value(s), got 'five'"),
    ], ids=["task-numbers", "config-value"])
    def test_a_non_integer_is_one_error_line_and_no_output(self, capsys, tmp_path, tasks, config, error):
        (tmp_path / "tasks.txt").write_text(tasks)
        (tmp_path / "sched.conf").write_text(config)
        argv = ["sched-sim", "--tasks", str(tmp_path / "tasks.txt"), "--config", str(tmp_path / "sched.conf")]
        assert run(capsys, *argv) == (1, "", f"InvalidArgument: {error}\n")

    def test_config_file_supplies_quantum_and_threshold(self, capsys, tmp_path):
        tasks = tmp_path / "tasks.txt"
        tasks.write_text("task hog prio 10 cycles 50\n")
        config = tmp_path / "sched.conf"
        config.write_text("deprioritize_threshold = 10\nquantum = 20\n")
        code, out, _ = run(capsys, "sched-sim", "--tasks", str(tasks), "--config", str(config))
        assert code == 0
        assert out.strip().splitlines()[1] == "hog,1,20,50"

    def test_full_scale_threshold_runs_in_bounded_time(self, tmp_path):
        """README's full-scale config with a task past the 1e9-cycle threshold, in a fresh process."""
        tasks = tmp_path / "tasks.txt"
        tasks.write_text("task big prio 10 cycles 2000000000\ntask small prio 10 cycles 5000\n")
        config = tmp_path / "full.conf"
        config.write_text(
            "pool_bytes = 536870912\nlarge_page_classes = 2097152, 1073741824\n"
            "deprioritize_threshold = 1000000000\nquantum = 10000\n"
        )
        src = str(Path(neurokernel.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        env.pop(ENV_VAR, None)
        done = subprocess.run(
            [sys.executable, "-m", "neurokernel.cli", "sched-sim", "--tasks", str(tasks),
             "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (
            "task_id,completion_index,final_priority,consumed_cycles\n"
            "small,1,10,5000\nbig,2,20,2000000000\n"
        )


class TestInputFiles:
    @pytest.mark.parametrize("argv", [
        ["pool-demo", "--ops", "{bad}"],
        ["sched-sim", "--tasks", "{bad}"],
        ["orchestrate", "--ticks", "1", "--scenario", "{bad}"],
        ["pool-demo", "--ops", "{good}", "--config", "{bad}"],
    ], ids=["ops", "tasks", "scenario", "config"])
    @pytest.mark.parametrize("content", [b"\xffalloc 1\n", None], ids=["not-utf8", "missing"])
    def test_an_unreadable_file_is_one_invalid_argument_line(self, capsys, tmp_path, monkeypatch,
                                                             argv, content):
        monkeypatch.delenv(ENV_VAR, raising=False)
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("alloc 1\n")
        if content is not None:
            bad.write_bytes(content)
        code, out, err = run(capsys, *(a.format(good=good, bad=bad) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"InvalidArgument: cannot read {str(bad)!r}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestOrchestrate:
    def test_demo_scenario_emits_exact_strings(self, capsys):
        code, out, _ = run(capsys, "orchestrate", "--scenario", "demo", "--ticks", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tick,event,detail"
        assert '8,fused,"A person is standing 3 meters away, asking for help"' in lines
        assert "8,decision,Approach the person and respond verbally" in lines

    def test_byte_reproducible_for_fixed_seed(self, capsys):
        _, out1, _ = run(capsys, "orchestrate", "--scenario", "demo", "--ticks", "10", "--seed", "7")
        _, out2, _ = run(capsys, "orchestrate", "--scenario", "demo", "--ticks", "10", "--seed", "7")
        assert out1 == out2

    def test_scenario_file(self, capsys, tmp_path):
        scenario = tmp_path / "s.txt"
        scenario.write_text("node 1 vision\ninput 1 vision person\n")
        code, out, _ = run(capsys, "orchestrate", "--scenario", str(scenario), "--ticks", "3")
        assert code == 0
        assert "3,fused,A person is present" in out.splitlines()

    def test_a_scenario_without_inputs_fuses_nothing(self, capsys, tmp_path):
        text = "node 1 vision\nnode 2 audio\n"
        scenario = tmp_path / "s.txt"
        scenario.write_text(text)
        code, out, err = run(capsys, "orchestrate", "--scenario", str(scenario), "--ticks", "3")
        assert (code, err) == (0, "")
        assert out == "tick,event,detail\n0,node,id=1 modalities=vision\n0,node,id=2 modalities=audio\n"
        events, summary, action = run_scenario(parse_scenario(text), 3, seed=0)
        assert (summary, action) == (None, None)
        assert {kind for _tick, kind, _detail in events} == {"node"}


class TestRababDemo:
    def test_learning_curve_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "rabab-demo", "--iterations", "50", "--seed", "0")
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == "iteration,confidence"
        assert len(lines) == 51
        final = float(lines[-1].split(",")[1])
        assert final == 51.0 / 52.0
        _, out2, _ = run(capsys, "rabab-demo", "--iterations", "50", "--seed", "0")
        assert out1 == out2

    @pytest.mark.parametrize("iterations", ["0", "-2"])
    def test_an_iteration_count_below_one_fails_before_any_output(self, capsys, iterations):
        code, out, err = run(capsys, "rabab-demo", "--iterations", iterations)
        assert (code, out) == (1, "")
        assert err == f"InvalidArgument: iterations must be an int >= 1, got {iterations}\n"


class TestRababDraw:
    def test_ppm_output(self, capsys):
        code, out, _ = run(capsys, "rabab-draw", "--intent", "pixel:1,0,#FF0000",
                           "--width", "2", "--height", "1")
        assert code == 0
        assert out == "P3\n2 1\n255\n0 0 0 255 0 0\n"

    def test_default_framebuffer_is_128(self, capsys):
        code, out, _ = run(capsys, "rabab-draw", "--intent", "pixel:100,50,#FF0000")
        assert code == 0
        assert out.startswith("P3\n128 128\n255\n")

    def test_out_of_bounds_intent_exits_one(self, capsys):
        code, _, err = run(capsys, "rabab-draw", "--intent", "pixel:200,0,#FF0000",
                           "--width", "8", "--height", "8")
        assert code == 1
        assert "InvalidArgument" in err

    def test_a_coordinate_past_the_digit_limit_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "rabab-draw", "--intent", f"pixel:{'1' * 5000},0,#FF0000")
        assert (code, out) == (1, "")
        assert err.startswith("InvalidArgument: ") and err.count("\n") == 1


class TestConfigParsing:
    def test_parse_values_and_lists(self):
        values = parse_config(
            "# pool sizing\npool_bytes = 8388608\nblock_bytes=4096\n"
            "large_page_classes = 65536, 1048576\n"
        )
        assert values["pool_bytes"] == 8388608
        assert values["large_page_classes"] == (65536, 1048576)
        cfg = config_from(PoolConfig, values)
        assert cfg == PoolConfig(pool_bytes=8388608, block_bytes=4096,
                                 large_page_classes=(65536, 1048576))

    def test_a_flag_overrides_the_file_and_defaults_fill_the_rest(self):
        values = parse_config("quantum = 5\nbatch_size = 2\npool_bytes = 8\n")
        cfg = config_from(SchedulerConfig, values, quantum=7, deprioritize_threshold=None)
        assert cfg == SchedulerConfig(batch_size=2, quantum=7)

    def test_each_accepted_key_is_a_field_of_exactly_one_config_type(self):
        owners = Counter(f.name for t in (PoolConfig, MatmulConfig, SchedulerConfig) for f in fields(t))
        assert set(owners.values()) == {1}  # config_from hands each key to one type
        values = parse_config("".join(f"{name} = 4096\n" for name in owners))
        assert set(values) == set(owners)  # every field is a key; any other key is refused
        assert values["large_page_classes"] == (4096,)  # a tuple default takes a list

    def test_directives_number_lines_and_drop_comments_and_blanks(self):
        text = "# head\n  alloc 1  # trailing\n\n   \n\tfree 1\nlpage#x\n#"
        assert directives(text) == [(2, "alloc 1"), (5, "free 1"), (6, "lpage")]

    @pytest.mark.parametrize("parse", [parse_config, parse_scenario, directives],
                             ids=["parse_config", "parse_scenario", "directives"])
    @pytest.mark.parametrize("text", [None, 5, b"quantum = 5\n"], ids=["None", "int", "bytes"])
    def test_non_str_text_is_one_invalid_argument(self, parse, text):
        with pytest.raises(InvalidArgument, match="must be str"):
            parse(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(Exception):
            parse_config("pool_bytes eight\n")

    @pytest.mark.parametrize("text, line, key", [
        ("quantm = 5\nquantum = 1\nquantum = 2", 1, "'quantm'"),
        ("# sizing\npool_bytes = 8\n\nPool_Bytes = 8\n", 4, "'Pool_Bytes'"),
        ("block_bytes = 4096\n = 3\n", 2, "''"),
    ])
    def test_unknown_key_rejected_naming_the_line(self, text, line, key):
        with pytest.raises(InvalidArgument, match=f"line {line}: unknown key {key}"):
            parse_config(text)

    def test_duplicate_key_rejected_naming_the_line(self):
        with pytest.raises(InvalidArgument, match="line 3: duplicate key 'quantum'"):
            parse_config("quantum = 5\n# again\nquantum = 1\n")

    def test_duplicate_list_key_rejected(self):
        with pytest.raises(InvalidArgument, match="line 2: duplicate key 'large_page_classes'"):
            parse_config("large_page_classes = 65536\nlarge_page_classes = 1048576\n")

    def test_every_documented_key_accepted(self):
        text = (
            "pool_bytes = 1\nblock_bytes = 2\nlarge_page_classes = 3, 4\nblock_size = 5\n"
            "worker_count = 6\ndeprioritize_threshold = 7\nbatch_size = 8\nquantum = 9\n"
        )
        assert parse_config(text) == {
            "pool_bytes": 1, "block_bytes": 2, "large_page_classes": (3, 4), "block_size": 5,
            "worker_count": 6, "deprioritize_threshold": 7, "batch_size": 8, "quantum": 9,
        }

    def test_unknown_key_in_config_file_exits_one(self, capsys, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("alloc 1\n")
        config = tmp_path / "pool.conf"
        config.write_text("pool_bytes = 32768\nblock_byte = 4096\n")
        code, out, err = run(capsys, "pool-demo", "--ops", str(ops), "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "InvalidArgument: config line 2: unknown key 'block_byte'\n"
