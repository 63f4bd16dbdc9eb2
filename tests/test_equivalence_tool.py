"""tools/equivalence.py: dumps of one code version compare clean."""
import json
import pathlib
import struct
import subprocess
import sys

import numpy as np


def test_dumps_of_same_code_compare_clean(equivalence, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "2"]) == 0
    assert equivalence.main(["dump", str(b), "--limit", "2"]) == 0
    capsys.readouterr()
    assert equivalence.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "2 scenarios, 0 discrete mismatches" in out
    assert "largest lpu gain difference 0 " in out

    # a changed delay-hop track is a discrete mismatch; a gain shift beyond
    # its tolerance alone is flagged with its own exit status
    records = json.loads(a.read_text())
    records[0]["dps"]["kappas"][0][0] += 1
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert "MISMATCH default/seed1000/0dB dps: kappas" in capsys.readouterr().out
    records[0]["dps"]["kappas"][0][0] -= 1
    records[0]["dps"]["gains_re"][0][0] += 1e-9
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 2

    # a dump in another format (here a two-entry nmse_db, as an older tool
    # wrote, or a missing key) is refused rather than broadcast or skipped
    records = json.loads(a.read_text())
    value = records[0]["dps"]["nmse_db"]
    records[0]["dps"]["nmse_db"] = [value, value]
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH default/seed1000/0dB dps: different dump formats (nmse_db)" in out
    records[0]["dps"]["nmse_db"] = value
    del records[1]["omp"]["corr"]
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert "default/seed1000/10dB omp: different dump formats" in capsys.readouterr().out


def test_perturbed_channel_is_flagged(equivalence, tmp_path, capsys):
    # the dump records the synthesized H itself, so H moved by 1e-9 relative
    # exceeds the 1e-12 channel tolerance even if every estimate agrees
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "1"]) == 0
    records = json.loads(a.read_text())
    H = next(equivalence.scenarios())[2]
    assert records[0]["channel"] == equivalence.channel_record(H)
    # a uniform scaling moves the norm; a random direction of the same
    # relative size leaves the norm within 1e-12 and moves the projection
    rng = np.random.default_rng(1)
    dH = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    dH *= 1e-9 * np.linalg.norm(H) / np.linalg.norm(dH)
    for perturbed in (H * (1.0 + 1e-9), H + dH):
        records[0]["channel"] = equivalence.channel_record(perturbed)
        b.write_text(json.dumps(records))
        capsys.readouterr()
        assert equivalence.main(["compare", str(a), str(b)]) == 2
        assert "largest channel (relative) difference" in capsys.readouterr().out
    # a dump without the channel is another format
    del records[0]["channel"]
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert "default/seed1000/0dB channel: different dump formats" in capsys.readouterr().out


def test_perturbed_observation_is_flagged(equivalence, tmp_path, capsys):
    # the observation the estimators read must agree exactly, so a Y moved
    # by 1e-12 relative exits 2 even if every estimate agrees
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "1"]) == 0
    records = json.loads(a.read_text())
    Y = next(equivalence.scenarios())[4]
    assert records[0]["observation"] == equivalence.channel_record(Y)
    rng = np.random.default_rng(2)
    dY = rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)
    dY *= 1e-12 * np.linalg.norm(Y) / np.linalg.norm(dY)
    for perturbed in (Y * (1.0 + 1e-12), Y + dY):
        records[0]["observation"] = equivalence.channel_record(perturbed)
        b.write_text(json.dumps(records))
        capsys.readouterr()
        assert equivalence.main(["compare", str(a), str(b)]) == 2
        assert "largest observation (relative) difference" in capsys.readouterr().out
    del records[0]["observation"]
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert "default/seed1000/0dB observation: different dump formats" in capsys.readouterr().out


def test_flipped_path_flags_are_discrete_mismatches(equivalence, tmp_path, capsys):
    # each DPS path's clamped and refined flags are dumped and compared
    # exactly, so a flip is a mismatch even when every number agrees
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "1"]) == 0
    records = json.loads(a.read_text())
    dps = records[0]["dps"]
    assert len(dps["clamped"]) == len(dps["refined"]) == dps["n_paths"] >= 1
    for flag in ("clamped", "refined"):
        flipped = json.loads(a.read_text())
        flipped[0]["dps"][flag][0] = not flipped[0]["dps"][flag][0]
        b.write_text(json.dumps(flipped))
        capsys.readouterr()
        assert equivalence.main(["compare", str(a), str(b)]) == 1
        assert f"MISMATCH default/seed1000/0dB dps: {flag}" in capsys.readouterr().out


def test_flipped_message_payload_bit_is_flagged(equivalence, tmp_path, capsys):
    # the a12 scenarios dump run_distributed's message log with exact
    # payload values, so one flipped bit of one payload is a mismatch
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "121"]) == 0
    records = json.loads(a.read_text())
    assert all(r["dps"]["messages"] is None for r in records[:120])
    assert records[120]["name"] == "a12/seed0"
    log = records[120]["dps"]["messages"]
    i, msg = next((i, m) for i, m in enumerate(log) if m[1] == "DelaySeed")
    bits = struct.unpack("<q", struct.pack("<d", float.fromhex(msg[3][0])))[0] ^ 1
    msg[3][0] = struct.unpack("<d", struct.pack("<q", bits))[0].hex()
    b.write_text(json.dumps(records))
    capsys.readouterr()
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert f"MISMATCH a12/seed0 dps: messages: message {i} " in capsys.readouterr().out


def test_compare_runs_without_nfce(equivalence, tmp_path):
    # compare only reads two dumps, so it must run where nfce cannot be
    # imported; a None entry in sys.modules makes any nfce import fail
    a = tmp_path / "a.json"
    assert equivalence.main(["dump", str(a), "--limit", "1"]) == 0
    tool = pathlib.Path(equivalence.__file__)
    code = ("import runpy, sys; sys.modules['nfce'] = None; "
            f"sys.argv = [{str(tool)!r}, 'compare', {str(a)!r}, {str(a)!r}]; "
            f"runpy.run_path({str(tool)!r}, run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert "1 scenarios, 0 discrete mismatches" in out.stdout


def test_compare_prints_the_accuracy_summary(equivalence, tmp_path, capsys):
    # each dumped scenario holds its true path count, and compare prints per
    # side and group the mean and median nmse_db, the mean |L_hat - L| and
    # DPS's stop reasons
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert equivalence.main(["dump", str(a), "--limit", "2"]) == 0
    records = json.loads(a.read_text())
    assert [r["n_paths"] for r in records] == [2, 2]
    capsys.readouterr()
    assert equivalence.main(["compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    for side in "AB":
        for group in ("default/0dB", "default/10dB"):
            assert f"{side} {group} (1): dps nmse_db mean " in out
    # a different true path count is a mismatch
    records[1]["n_paths"] = 3
    b.write_text(json.dumps(records))
    assert equivalence.main(["compare", str(a), str(b)]) == 1
    assert "MISMATCH default/seed1000/10dB: true path count 2 != 3" in capsys.readouterr().out

    # the summary's arithmetic on three records of one group
    made = [{"name": f"a12/seed{i}", "n_paths": 2,
             "dps": {"nmse_db": x, "n_paths": n, "stop_reason": reason},
             "omp": {"nmse_db": -x, "n_paths": 16}}
            for i, (x, n, reason) in enumerate([(-1.0, 2, "threshold"), (-3.0, 5, "max_paths"),
                                                (2.0, 3, "threshold")])]
    row = equivalence.accuracy(made)["a12"]
    assert row["count"] == 3
    np.testing.assert_allclose(row["dps"], (-2.0 / 3.0, -1.0, 4.0 / 3.0), rtol=1e-15)
    np.testing.assert_allclose(row["omp"], (2.0 / 3.0, 1.0, 14.0), rtol=1e-15)
    assert row["stops"] == {"threshold": 2, "max_paths": 1}
