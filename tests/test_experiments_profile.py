"""The ``repro profile`` hot-spot profiler."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.profile import ProfileReport, profile_run


def test_profile_run_collects_dispatch_histogram():
    report = profile_run(duration_s=16.0, with_cprofile=False)
    assert isinstance(report, ProfileReport)
    assert report.events > 0
    assert report.wall_s > 0
    assert report.events_per_second > 0
    assert report.dispatch, "dispatch histogram must not be empty"
    top = report.dispatch[0]
    assert set(top) == {"callback", "count", "self_s"}
    # Sorted by self time descending.
    selves = [row["self_s"] for row in report.dispatch]
    assert selves == sorted(selves, reverse=True)
    assert report.hotspots == []  # cProfile pass skipped


def test_profile_run_with_cprofile_names_known_hotspots():
    report = profile_run(duration_s=16.0, with_cprofile=True)
    assert report.hotspots
    tottimes = [row["tottime"] for row in report.hotspots]
    assert tottimes == sorted(tottimes, reverse=True)
    names = " ".join(row["function"] for row in report.hotspots)
    # The kernel run loop is always on a profile of a simulation.
    assert "kernel.py" in names


def test_profile_run_wordcount_and_shards():
    report = profile_run("baseline_wordcount", duration_s=12.0,
                         with_cprofile=False, shards=2)
    assert report.kind == "wordcount" and report.events > 0
    with pytest.raises(ConfigurationError):
        profile_run("nosuch", duration_s=4.0)
    with pytest.raises(ConfigurationError):
        profile_run(duration_s=4.0, shards=3)  # 4 nodes % 3 != 0


def test_profile_report_roundtrips_to_json():
    report = profile_run(duration_s=8.0, with_cprofile=False)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["events"] == report.events
    assert data["dispatch"] == report.dispatch
    text = report.render(top=5)
    assert "dispatch histogram" in text
    assert f"{report.events} events" in text


def test_cli_profile_smoke(capsys):
    assert main(["profile", "fig8", "--duration", "8",
                 "--no-cprofile", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "profile:fig8" in out and "dispatch histogram" in out


def test_cli_profile_json(capsys):
    assert main(["profile", "fig17", "--duration", "8", "--json",
                 "--no-cprofile"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "wordcount" and data["events"] > 0


def test_cli_profile_accepts_library_scenarios(capsys):
    assert main(["profile", "windowed_join", "--duration", "4", "--json",
                 "--no-cprofile"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "join" and data["label"] == "profile:windowed_join"
    assert main(["profile", "no_such_target", "--duration", "4"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_cli_profile_rejects_bad_shards(capsys):
    assert main(["profile", "fig8", "--duration", "4",
                 "--shards", "3", "--no-cprofile"]) == 2
    assert "error" in capsys.readouterr().err
