"""tools/equivalence.py: dumps of one code version compare clean."""
import json


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
