"""Command-line interface tests."""

import json
from pathlib import Path

from zkoracle.cli import bundled_scenarios, main

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "zkoracle" / "scenarios"


def test_run_honest_config(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(SCENARIOS / "honest_n4.json"),
                 "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "events.log").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["answered"] == summary["requests"]
    assert summary["safety_violations"] == 0


def test_run_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_text('{"depth": 2, "unknown_knob": 5}')
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    bad.write_bytes(b'{"depth": 2, "name": "\xff"}')  # not UTF-8
    capsys.readouterr()
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_run_attack_config_expects_violation(tmp_path):
    out = tmp_path / "attack"
    code = main(["run", "--config", str(SCENARIOS / "attack_majority_n4.json"),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["safety_violations"] >= 1


def test_run_seed_override_changes_output(tmp_path):
    base = SCENARIOS / "honest_n4.json"
    main(["run", "--config", str(base), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(base), "--seed", "99", "--out", str(tmp_path / "b")])
    log_a = (tmp_path / "a" / "events.log").read_text()
    log_b = (tmp_path / "b" / "events.log").read_text()
    assert log_a != log_b


def test_run_deterministic_outputs(tmp_path):
    base = SCENARIOS / "honest_n4.json"
    main(["run", "--config", str(base), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(base), "--out", str(tmp_path / "b")])
    for name in ("metrics.csv", "events.log", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(SCENARIOS / "honest_n4.json"), "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", "--log", str(out / "events.log")])
    printed = capsys.readouterr().out
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert f"final root: {summary['final_root']}" in printed


def test_replay_against_snapshot(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(SCENARIOS / "honest_n4.json"), "--out", str(out)])
    assert main(["replay", "--log", str(out / "events.log"),
                 "--snapshot", str(out / "tree.snapshot")]) == 0
    # a tampered snapshot is caught
    lines = (out / "tree.snapshot").read_text().splitlines()
    index, x, y, balance = lines[0].split()
    lines[0] = f"{index} {x} {y} {int(balance) + 1}"
    bad = tmp_path / "bad.snapshot"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--log", str(out / "events.log"),
                 "--snapshot", str(bad)]) == 1
    # a line whose index lies outside the tree is bad input, not a crash
    for index in (999, -1):
        bad.write_text(f"{index} 1 2 3\n")
        capsys.readouterr()
        assert main(["replay", "--log", str(out / "events.log"),
                     "--snapshot", str(bad)]) == 2
        assert "error: cannot load snapshot" in capsys.readouterr().err


def test_replay_deleted_record(tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(SCENARIOS / "honest_n4.json"), "--out", str(out)])
    lines = (out / "events.log").read_text().splitlines()
    del lines[5]
    mangled = tmp_path / "mangled.log"
    mangled.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--log", str(mangled)]) == 1


def test_replay_hostile_log_exits_1(tmp_path, capsys):
    # an off-curve key and a submission for a request that never existed
    header = "# params depth=2 min_stake=100 val_reward=10 agg_reward=50 " \
             "exit_delay=604800 aggregator_mode=round_robin"
    for line in ("0 Registered 0.0 index=0 ip=ip owner=o pubkey_x=1 pubkey_y=1 "
                 "stake=100",
                 "0 BlockSubmitted 0.0 agg_index=0 block_hash=1 "
                 "post_state_root=2 request_id=9 validator_bits=7"):
        log = tmp_path / "hostile.log"
        log.write_text(f"{header}\n{line}\n")
        assert main(["replay", "--log", str(log)]) == 1
        assert "corrupt log" in capsys.readouterr().err


def test_replay_empty_log(tmp_path, capsys):
    empty = tmp_path / "empty.log"
    empty.write_text("")
    assert main(["replay", "--log", str(empty)]) == 0
    assert "events: 0" in capsys.readouterr().out


def test_replay_unreadable(tmp_path, capsys):
    assert main(["replay", "--log", str(tmp_path / "nope.log")]) == 2
    binary = tmp_path / "binary.log"
    binary.write_bytes(b"\xff\xfe\x00")  # not UTF-8
    capsys.readouterr()
    assert main(["replay", "--log", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scaling_rejects_bad_sizes(tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["scaling", "--sizes", "4,6", "--out", out]) == 2
    assert main(["scaling", "--sizes", "512", "--out", out]) == 2
    assert main(["scaling", "--sizes", "4,x", "--out", out]) == 2


def test_scaling_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scaling", "--sizes", "4,8", "--out", str(a)]) == 0
    assert main(["scaling", "--sizes", "4,8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, row4, row8 = a.read_text().splitlines()
    assert header.startswith("committee,depth,threshold")
    assert row4.split(",")[0] == "4"
    assert row8.split(",")[0] == "8"


def test_bundled_scenarios_load():
    configs = bundled_scenarios()
    assert "honest_n4" in configs
    assert "attack_majority_n4" in configs
    assert any(name.startswith("safety_") for name in configs)


def test_selftest_quick(capsys):
    code = main(["selftest", "--rounds", "3", "--conservation-runs", "2"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "PASS circuit brute force" in printed
    assert "FAIL" not in printed


def test_selftest_rejects_negative_counts_before_any_work(capsys, monkeypatch):
    import zkoracle.cli as cli

    def no_work():
        raise AssertionError("selftest started work on a bad option")

    monkeypatch.setattr(cli, "aggregation_brute_force", no_work)
    for argv, flag in ((["--rounds", "-1", "--conservation-runs", "0"], "--rounds"),
                       (["--conservation-runs", "-1"], "--conservation-runs")):
        assert main(["selftest", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be >= 0" in captured.err
