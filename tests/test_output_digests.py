"""Every CSV and JSON the nine commands write, and what they print to
stdout, against the recorded digests.

On the NumPy build and CPU features the digests were recorded with, every
file must be byte-identical; elsewhere each file is checked against its
recorded summary by tolerance (see ``output_digests.py``, which also
rewrites the digest file).
"""

import json

import pytest

import output_digests as od


@pytest.fixture(scope="module")
def recorded():
    with open(od.DIGEST_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return od.run_all(str(tmp_path_factory.mktemp("digests")))


def test_every_run_is_recorded(recorded):
    assert list(recorded["runs"]) == list(od.RUNS)


@pytest.mark.parametrize("run", list(od.RUNS))
def test_outputs_match_the_record(recorded, outputs, run):
    """Summaries by tolerance everywhere, so the fallback always runs; bytes
    exactly where the environment is the recorded one."""
    files = recorded["runs"][run]
    assert sorted(outputs[run]) == sorted(files)
    rtol = od.RUNS[run][1]
    errors = {f: od.summary_errors(od.summary(f, data), files[f]["summary"], rtol)
              for f, data in outputs[run].items()}
    assert not any(errors.values()), f"{run}: {errors}"
    if recorded["environment"] == od.environment():
        changed = [f for f, data in outputs[run].items()
                   if od.sha256(data) != files[f]["sha256"]]
        assert not changed, f"{run}: bytes changed in {changed}"


def test_summary_check_catches_a_moved_number():
    data = b"rule,estimator,value\nlog,bayes_1,1.25\nse,bayes_1,NA\n"
    ref = od.summary("t.csv", data)
    assert od.summary_errors(od.summary("t.csv", data), ref, 1e-9) == []
    moved = od.summary("t.csv", data.replace(b"1.25", b"1.2500001"))
    assert od.summary_errors(moved, ref, 1e-9)
    assert od.summary_errors(moved, ref, 1e-6) == []
    relabelled = od.summary("t.csv", data.replace(b"NA", b"0.5"))
    assert od.summary_errors(relabelled, ref, 1e-6)
    doc = b'{"a": [1.5, 2.5], "b": "x"}'
    assert od.summary_errors(od.summary("d.json", doc), od.summary("d.json", doc), 0.0) == []
    assert od.summary_errors(od.summary("d.json", doc.replace(b"x", b"y")),
                             od.summary("d.json", doc), 1.0)


def test_stdout_summary_masks_numbers_not_names():
    printed = b"final NLL log:exc_1_1 = 2.0373, random = -1.5e-03\n"
    got = od.summary(od.STDOUT, printed)
    assert got["numbers"] == {od.STDOUT: od._numbers_summary([2.0373, -1.5e-03])}
    assert od.summary_errors(od.summary(od.STDOUT, printed.replace(b"2.0373", b"2.0374")),
                             got, 1e-6)
    assert od.summary_errors(od.summary(od.STDOUT, printed.replace(b"exc_1_1", b"exc_2_1")),
                             got, 1.0) == ["text differs"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
def test_arguments_write_nothing(monkeypatch, tmp_path, argv, code):
    """Only a bare run records: --help prints the usage, any other argument
    is a usage error, and neither writes the digest file."""
    path = tmp_path / "digests.json"
    monkeypatch.setattr(od, "DIGEST_PATH", str(path))
    with pytest.raises(SystemExit) as exit_info:
        od.main(argv)
    assert exit_info.value.code == code
    assert not path.exists()
