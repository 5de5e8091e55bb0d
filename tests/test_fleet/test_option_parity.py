"""One declaration per watch option.

The ``watch`` flags and the fleet keys are both derived from the
:class:`~repro.fleet.job.JobSpec` fields, so the same setting spelled
either way builds the same spec, and the same bad value is rejected
either way with the same "must be ..." text: exit 2 naming the flag
on the command line, a :class:`FleetConfigError` naming the key in a
fleet config.
"""

from __future__ import annotations

import pytest

from repro.cli import _watch_spec, build_parser, main
from repro.fleet import FleetConfigError, parse_fleet_data
from repro.fleet.job import CLI, OPTION_BY_NAME, OPTIONS

#: A non-default value for every option a fleet config can set (bar
#: the ``source`` every job has), plus the options it depends on.
#: Path values are made absolute against ``tmp_path``, so the fleet's
#: config-relative resolution leaves them alone.
SAMPLES = {
    "interval": (1.5, {}),
    "checkpoint": ("@w.ckpt", {}),
    "window": (4, {}),
    "memory_budget": (4096, {}),
    "emit": ("@w.elog", {}),
    "compact_emit": (65536, {"emit": "@w.elog",
                             "checkpoint": "@w.ckpt"}),
    "rules": ("@rules.toml", {}),
    "alert_log": ("@alerts.jsonl", {"rules": "@rules.toml"}),
    "baseline": ("@good.elog", {"rules": "@rules.toml"}),
    "recursive": (True, {}),
    "lenient": (True, {}),
    "mapping": ("call", {}),
    "levels": (3, {}),
    "show_dfg": (False, {}),
    "top": (3, {}),
    "catalog": ("@runs.db", {"run_name": "nightly"}),
    "run_name": ("nightly", {"catalog": "@runs.db"}),
}


def _value(value, tmp_path):
    if isinstance(value, str) and value.startswith("@"):
        return str(tmp_path / value[1:])
    return value


def _flag_args(name: str, value) -> list[str]:
    option = OPTION_BY_NAME[name]
    if isinstance(option.default, bool):
        assert value != option.default
        return [option.flag]
    return [option.flag, str(value)]


def _fleet_spec(settings: dict, tmp_path):
    entry = {"source": str(tmp_path / "traces")}
    entry.update({OPTION_BY_NAME[name].key: value
                  for name, value in settings.items()})
    (spec,) = parse_fleet_data({"jobs": {"watch": entry}},
                               where="inline", base_dir=tmp_path)
    return spec


def _watch_spec_of(settings: dict, tmp_path):
    argv = ["watch", str(tmp_path / "traces")]
    for name, value in settings.items():
        argv += _flag_args(name, value)
    return _watch_spec(build_parser().parse_args(argv))


def test_samples_cover_every_fleet_option():
    fleet_options = {option.name for option in OPTIONS
                     if option.scope != CLI and option.name != "source"}
    assert set(SAMPLES) == fleet_options


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_flag_and_key_build_equal_specs(name, tmp_path):
    value, needs = SAMPLES[name]
    settings = {key: _value(v, tmp_path)
                for key, v in {**needs, name: value}.items()}
    cli = _watch_spec_of(settings, tmp_path)
    fleet = _fleet_spec(settings, tmp_path)
    assert getattr(cli, name) == settings[name]
    assert cli == fleet


@pytest.mark.parametrize("name,value", [
    ("top", 0),
    ("levels", 0),
    ("interval", -1),
    ("window", 1),
    ("memory_budget", 0),
    ("compact_emit", 0),
])
def test_out_of_range_value_rejected_both_ways(name, value, tmp_path,
                                               capsys):
    option = OPTION_BY_NAME[name]
    must = f"must be {option.check.want}"
    with pytest.raises(SystemExit) as excinfo:
        main(["watch", str(tmp_path), option.flag, str(value)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option.flag}: {must}" in err
    with pytest.raises(FleetConfigError) as raised:
        _fleet_spec({name: value}, tmp_path)
    assert f"key {option.key!r} {must}" in str(raised.value)


def test_run_name_without_catalog_rejected_both_ways(tmp_path, capsys):
    assert main(["watch", str(tmp_path), "--once",
                 "--run-name", "nightly"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--run-name" in err
    with pytest.raises(FleetConfigError,
                       match="job 'watch': run_name but no catalog"):
        _fleet_spec({"run_name": "nightly"}, tmp_path)


class TestLevelsBelowOne:
    """``levels < 1`` is a usage error (exit 2, one ``error:`` line)
    on every route, never a ValueError traceback."""

    @pytest.mark.parametrize("argv", [
        ["report", "sim:ls", "--levels", "0"],
        ["synthesize", "sim:ls", "--levels", "-1"],
        ["report", "sim:ls", "--mapping", "site", "--levels", "0"],
    ])
    def test_batch_subcommands(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --levels: must be an integer >= 1" in err
        assert "Traceback" not in err

    def test_watch(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", str(tmp_path), "--once", "--levels", "0"])
        assert excinfo.value.code == 2
        assert "argument --levels" in capsys.readouterr().err

    def test_fleet(self, tmp_path, capsys):
        (tmp_path / "traces").mkdir()
        config = tmp_path / "fleet.toml"
        config.write_text('levels = 0\n[jobs.a]\nsource = "traces"\n',
                          encoding="utf-8")
        assert main(["fleet", "--jobs", str(config), "--once"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "key 'levels' must be an integer >= 1" in err
