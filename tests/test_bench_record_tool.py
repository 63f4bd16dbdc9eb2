"""tools/bench_record.py: per-metric summaries, pair wins, checkout commits."""
import shutil
import subprocess

import pytest

SPEC = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "time", "unit": "s", "better": "lower", "bound": 0.2},
]


def _pairs(rows):
    return [{"parent": {"rate": pr, "time": pt}, "change": {"rate": cr, "time": ct}}
            for pr, cr, pt, ct in rows]


def test_wins_follow_the_better_direction_and_ties_count_for_neither(bench_record):
    out = bench_record.compare(_pairs([
        (1.0, 2.0, 5.0, 5.0),
        (3.0, 1.0, 4.0, 3.0),
        (2.0, 4.0, 2.0, 1.0),
        (4.0, 4.0, 1.0, 2.0),
    ]), SPEC)
    assert (out["rate"]["change"]["wins"], out["rate"]["parent"]["wins"]) == (2, 1)
    assert (out["time"]["change"]["wins"], out["time"]["parent"]["wins"]) == (2, 1)
    rate = out["rate"]
    assert rate["parent"]["values"] == [1.0, 3.0, 2.0, 4.0]
    assert rate["parent"]["median"] == 2.5
    # inclusive quartiles of 1, 2, 3, 4
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (1.75, 3.25)
    assert rate["parent_iqr"] == 1.5
    assert rate["median_gap"] == pytest.approx(3.0 - 2.5)
    assert rate["relative_change"] == pytest.approx(0.5 / 2.5)
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.2)


def test_one_pair_summarizes_to_its_value(bench_record):
    out = bench_record.compare(_pairs([(2.0, 3.0, 1.0, 1.0)]), SPEC)
    assert out["rate"]["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0,
                                     "values": [3.0], "wins": 1}
    assert out["time"]["parent"]["wins"] == out["time"]["change"]["wins"] == 0


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_record_names_the_commit_of_a_clean_checkout(bench_record, tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
             *args], capture_output=True, text=True, check=True).stdout.strip()

    with pytest.raises(RuntimeError, match="not a git checkout"):
        bench_record.checkout_commit(str(tmp_path))
    git("init", "-q")
    (tmp_path / "a.txt").write_text("1\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    (tmp_path / "untracked.txt").write_text("ignored\n")
    assert bench_record.checkout_commit(str(tmp_path)) == git("rev-parse", "HEAD")
    (tmp_path / "a.txt").write_text("2\n")
    with pytest.raises(RuntimeError, match="uncommitted changes"):
        bench_record.checkout_commit(str(tmp_path))


def test_the_held_out_seed_lies_outside_the_pairs(bench_record, tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--parent", str(tmp_path), "--out", str(tmp_path / "o.json"),
                           "--seed-base", "100", "--held-out-seed", "109"])
