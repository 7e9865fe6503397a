"""End-to-end command-line checks using a fast two-router scenario."""
import pytest
import yaml

from meshsdn.cli import main

from support import builtin_doc

TINY = {
    "name": "tiny",
    "duration_s": 12.0,
    "olsr": {"jitter": 0.0, "randomize_phase": False},
    "eftm": {"randomize_phase": False},
    "wmrs": [
        {"id": "wmr1", "mesh_addr": "10.0.0.1", "access": [{"subnet": "192.168.1.0/24", "addr": "192.168.1.1"}]},
        {"id": "wmr2", "mesh_addr": "10.0.0.2"},
    ],
    "controllers": [{"id": "ctrl1", "addr": "10.0.255.1", "attach": "wmr2"}],
    "hosts": [{"id": "h1", "addr": "192.168.1.10", "attach": "wmr1"}],
    "links": [{"a": "wmr1", "b": "wmr2"}],
    "pings": [{"id": "ping1", "src": "h1", "dst": "ctrl1"}],
}


def tiny_path(tmp_path, extra=None):
    doc = {**TINY, **(extra or {})}
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_validate_builtin_scenario(capsys):
    assert main(["validate", "merge"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: merge ")
    assert "6 wmrs, 2 controllers" in out


def test_validate_reports_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("name: t\nduration_s: -1\n")
    assert main(["validate", str(path)]) == 1
    assert "duration_s: must be positive" in capsys.readouterr().err


def test_validate_reports_hostile_value_in_one_line(tmp_path, capsys):
    path = tiny_path(tmp_path, {"duration_s": "long"})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}.duration_s: expected a number, got 'long'\n"


def test_validate_reports_hostile_number_in_one_line(tmp_path, capsys):
    path = tiny_path(tmp_path, {"pings": [{**TINY["pings"][0], "interval_s": 0}]})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}.pings[0].interval_s: must be positive, got 0\n"


def test_validate_reports_a_file_that_is_not_utf8_in_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: t\xff\nduration_s: 5.0\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 7\n"


def test_validate_errors_tell_apart_files_with_one_name(tmp_path, capsys):
    errors = {}
    for sub, extra in (
        ("a", {"pings": [{**TINY["pings"][0], "interval_s": 0}]}),
        ("b", {"pings": [{**TINY["pings"][0], "src": "wmr1"}]}),
    ):
        (tmp_path / sub).mkdir()
        path = tiny_path(tmp_path / sub, extra)
        assert main(["validate", path]) == 1
        errors[path] = capsys.readouterr().err
    a, b = errors
    assert errors == {
        a: f"error: {a}.pings[0].interval_s: must be positive, got 0\n",
        b: f"error: {b}: ping ping1: src 'wmr1' is not a host\n",
    }


@pytest.mark.parametrize(
    "hops, message",
    [
        ([], "has an empty path"),
        (["wmr4", "wmr5", "wmr4", "wmr3", "wmr2", "wmr1"], "names wmr4 twice"),
        (["wmr4", "wmr1"], "has no mesh link from wmr4 to wmr1"),
        (["wmr1", "wmr2"], "ends at wmr2, which does not announce it"),
        (["wmr4", "wmr3", "wmr2", "wmr1"], None),
    ],
    ids=["empty", "repeated-router", "no-mesh-link", "not-announced", "installable"],
)
def test_validate_refuses_a_path_override_it_could_not_install(tmp_path, capsys, hops, message):
    doc = builtin_doc("merge")
    doc["controllers"][0]["path_overrides"] = [{"dst": "192.168.1.0/24", "path": hops}]
    path = tmp_path / "merge.yaml"
    path.write_text(yaml.safe_dump(doc))
    if message is None:
        assert main(["validate", str(path)]) == 0
        return
    for command in (["validate", str(path)], ["run", str(path), "--seed", "0"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: controller ctrl1: override 192.168.1.0/24 {message}\n"
        )


def test_unknown_scenario_lists_builtins(capsys):
    assert main(["run", "no-such-thing"]) == 1
    err = capsys.readouterr().err
    assert "no such file or built-in scenario" in err
    assert "merge" in err and "partition" in err


def test_run_writes_logs_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", tiny_path(tmp_path), "--seed", "3", "--out", str(out_dir)])
    assert code == 0
    assert capsys.readouterr().out.startswith("tiny seed=3:")
    log = out_dir / "tiny-seed3.ndjson"
    assert log.is_file() and log.read_text().count("\n") > 10
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert lines[0] == "seed,scenario,connectivity_time_s,selection_delay_s,throughput_gap_s"
    assert lines[1].startswith("3,tiny,")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_that_cannot_be_a_directory_is_one_line_before_any_run(tmp_path, capsys, command):
    plain = tmp_path / "plain"
    plain.write_text("")
    args = [command, tiny_path(tmp_path), "--out", str(plain / "out")]
    if command == "sweep":
        args += ["--param", "duration_s=6.0"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no seed ran
    assert captured.err == f"error: --out {plain / 'out'}: Not a directory\n"


def test_out_file_that_cannot_be_written_is_one_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "results.csv").mkdir(parents=True)
    assert main(["run", tiny_path(tmp_path), "--seed", "0", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out_dir / 'results.csv'}: Is a directory\n"


def test_run_seed_range_is_half_open(tmp_path, capsys):
    assert main(["run", tiny_path(tmp_path), "--seeds", "5:8"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "tiny seed=5",
        "tiny seed=6",
        "tiny seed=7",
    ]


def test_run_rejects_seed_and_seeds_together(tmp_path, capsys):
    code = main(["run", tiny_path(tmp_path), "--seed", "1", "--seeds", "0:2"])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_run_param_overrides_document(tmp_path, capsys):
    code = main(
        ["run", tiny_path(tmp_path), "--param", "name=renamed", "--param", "duration_s=6.0"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("renamed seed=0:")


def test_bad_param_syntax(tmp_path, capsys):
    assert main(["run", tiny_path(tmp_path), "--param", "oops"]) == 1
    assert "expected KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_param_that_is_not_yaml_is_an_error_not_a_traceback(tmp_path, capsys, command):
    code = main([command, tiny_path(tmp_path), "--param", "eftm.poll_period_s=[1,"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --param eftm.poll_period_s: not valid YAML")


def test_param_that_is_not_yaml_is_reported_in_one_line(capsys):
    assert main(["run", "merge", "--param", "eftm.poll_period_s=[1,"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("at line 1, column 4\n")


def test_param_of_the_wrong_type_fails_before_the_run(capsys):
    # An int field given a word used to pass validation, then raise a
    # TypeError from deep inside the run.
    assert main(["run", "partition", "--param", "controller.rule_priority=high"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: builtin:partition.controller.rule_priority: expected an integer, got 'high'\n"
    )
    assert captured.out == ""


def test_sub_microsecond_interval_fails_before_the_run(capsys):
    # It used to round to 0 us, and the poll timer then rescheduled itself
    # at one instant forever.
    assert main(["run", "merge", "--seed", "0", "--param", "eftm.poll_period_s=0.0000001"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: builtin:merge.eftm.poll_period_s: must be at least 1 us, got 1e-07\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["validate", "{path}"],
            "{path}.links[0].capacity_mbps: must be at least 1 bit/s, got 1e-07",
        ),
        (
            ["run", "merge", "--param", "defaults.attach_link.capacity_mbps=1.0e-9"],
            "builtin:merge.defaults.attach_link.capacity_mbps: must be at least 1 bit/s, got 1e-09",
        ),
    ],
    ids=["validate-mesh-link", "run-attach-default"],
)
def test_sub_bit_capacity_fails_before_the_run(tmp_path, capsys, args, message):
    # It used to round to 0 bit/s: validate said ok, and the run died in
    # Link with a traceback.
    doc = builtin_doc("merge")
    doc["links"][0]["capacity_mbps"] = 1.0e-7
    path = tmp_path / "merge.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main([arg.format(path=path) for arg in args]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize(
    "params, message",
    [
        (
            ["eftm.poll_period_s=2.0,3.0", "eftm.poll_period_s=4.0"],
            "--param eftm.poll_period_s: given twice",
        ),
        (["eftm.poll_period_s=2.0,3.0,2.0"], "--param eftm.poll_period_s: 2.0 listed twice"),
    ],
    ids=["key-twice", "value-twice"],
)
def test_sweep_refuses_a_repeated_key_or_value_before_any_run(tmp_path, capsys, params, message):
    # Either used to run one combination twice under one name, writing two
    # equal results.csv rows and one log twice; a repeated key also dropped
    # the values given first.
    out_dir = tmp_path / "out"
    args = [arg for param in params for arg in ("--param", param)]
    assert main(["sweep", "merge", *args, "--seed", "0", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_sweep_takes_a_list_as_one_value(capsys):
    # Each --param is one YAML flow sequence: the commas inside [...] do not
    # split the axis.
    param = "eftm.priority_override=[10.0.255.2,10.0.255.1]"
    assert main(["sweep", "merge", "--param", param, "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" seed")[0] for line in out] == [
        "merge[eftm.priority_override=['10.0.255.2', '10.0.255.1']]"
    ]


def test_sweep_runs_cartesian_product(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            tiny_path(tmp_path),
            "--param",
            "olsr.hello_interval_s=1.0,2.0",
            "--param",
            "eftm.poll_period_s=2.0",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" seed")[0] for line in out] == [
        "tiny[olsr.hello_interval_s=1.0,eftm.poll_period_s=2.0]",
        "tiny[olsr.hello_interval_s=2.0,eftm.poll_period_s=2.0]",
    ]
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert len(rows) == 3  # header + one row per combination


def test_report_reads_a_sweep_over_two_params(tmp_path, capsys):
    # The swept scenario names hold a comma, which results.csv must quote.
    out_dir = tmp_path / "sweep"
    params = ["--param", "olsr.hello_interval_s=2.0,5.0", "--param", "eftm.poll_period_s=2.0"]
    assert main(["sweep", "merge", *params, "--seed", "0", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    reported = {line.split()[0] for line in captured.out.splitlines()[1:]}
    assert reported == {
        "merge[olsr.hello_interval_s=2.0,eftm.poll_period_s=2.0]",
        "merge[olsr.hello_interval_s=5.0,eftm.poll_period_s=2.0]",
    }


def test_report_aggregates_results(tmp_path, capsys):
    out_dir = tmp_path / "out"
    main(["run", tiny_path(tmp_path, {"measure": None}), "--seeds", "0:2", "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["report", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["scenario", "metric", "runs", "mean", "min", "max"]


def test_report_needs_results(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no results.csv" in capsys.readouterr().err


def test_sweep_over_a_prefix_writes_one_log_per_run(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "sweep",
            tiny_path(tmp_path),
            "--param",
            "eftm.controller_range=10.0.255.0/24",
            "--seed",
            "0",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    capsys.readouterr()
    name = "tiny[eftm.controller_range=10.0.255.0/24]"
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "results.csv",
        "tiny[eftm.controller_range=10.0.255.0%2F24]-seed0.ndjson",
    ]
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert rows[1].startswith(f"0,{name},")


def test_run_of_a_name_with_path_separators_writes_its_logs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = tiny_path(tmp_path, {"name": "a/b%2F"})
    assert main(["run", path, "--seeds", "0:2", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "a%2Fb%252F-seed0.ndjson",
        "a%2Fb%252F-seed1.ndjson",
        "results.csv",
    ]
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "a/b%2F"], ["1", "a/b%2F"]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed,connectivity_time_s,selection_delay_s,throughput_gap_s\n0,1,2,3\n", "no 'scenario' column"),
        (
            "seed,scenario,connectivity_time_s,selection_delay_s,throughput_gap_s\n"
            "0,tiny,1.5,,\n1,tiny,fast,,\n",
            "line 3: connectivity_time_s: expected a number, got 'fast'",
        ),
        (
            "seed,scenario,connectivity_time_s,selection_delay_s,throughput_gap_s\n0,tiny,nan,,\n",
            "line 2: connectivity_time_s: expected a number, got 'nan'",
        ),
        (
            "seed,scenario,connectivity_time_s,selection_delay_s,throughput_gap_s\n0\n",
            "line 2: too few cells",
        ),
        ("", "empty"),
    ],
    ids=["no-scenario-column", "word", "nan", "short-row", "empty"],
)
def test_report_refuses_malformed_results(tmp_path, capsys, text, message):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(text)
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {csv_path}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_flow_to_its_own_source_is_refused(tmp_path, capsys, command):
    doc = builtin_doc("merge")
    doc["flows"] = [
        {"id": "loop", "src": "h1", "dst": "h1"},
        {"id": "real", "src": "h2", "dst": "h1"},
    ]
    path = tmp_path / "merge.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: flow loop: dst 192.168.1.10 is the address of its src 'h1'\n"


HEADER = "seed,scenario,connectivity_time_s,selection_delay_s,throughput_gap_s\n"


@pytest.mark.parametrize(
    "args, files, message",
    [
        (["run", "merge", "--seeds", "3"], {}, "--seeds '3': expected A:B"),
        (["run", "merge", "--seeds", "5:2"], {}, "--seeds '5:2': need A < B"),
        (["sweep", "merge", "--param", "k="], {}, "--param 'k=': expected KEY=V1,V2,..."),
        (
            ["sweep", "{dir}/list.yaml", "--param", "k=1"],
            {"list.yaml": b"- a\n- b\n"},
            "{dir}/list.yaml: expected a mapping",
        ),
        (["report", "{dir}"], {"results.csv": HEADER.encode()}, "{dir}/results.csv: empty"),
        (
            ["report", "{dir}"],
            {"results.csv": b"\xff" + HEADER.encode()},
            "{dir}/results.csv: not a CSV file: 'utf-8' codec can't decode byte 0xff in"
            " position 0: invalid start byte",
        ),
    ],
    ids=[
        "seeds-not-a-range",
        "seeds-backwards",
        "sweep-no-values",
        "sweep-list",
        "report-header-only",
        "report-not-utf8",
    ],
)
def test_input_errors_exit_1_with_one_line(tmp_path, capsys, args, files, message):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main([arg.format(dir=tmp_path) for arg in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(dir=tmp_path)}\n"
