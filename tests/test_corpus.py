"""The coverage corpus: short scenario files under tests/corpus/ that run
what the canned paper suite never does, each through `mptunnel run`, with
the sha256 of every output file pinned in tests/golden/corpus.sha256 as
criterion 9 pins the paper suite's. tests/corpus/NOTES.md says what each
file is for. A change to the simulator's outputs regenerates the digests
and says why:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from mptunnel.cli import main as cli_main
from mptunnel.metrics import METRICS
from mptunnel.scenario import load_scenario

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden" / "corpus.sha256"
SCENARIOS = sorted(CORPUS.glob("*.json"))


def run_corpus(out: Path) -> dict[str, str]:
    """Run every corpus scenario into out/<file stem>/ and return the sha256
    of each file written, by its path under out."""
    for scenario in SCENARIOS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--scenario", str(scenario),
                             "--out", str(out / scenario.stem)])
        assert code == 0, scenario.name
    return {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return out, run_corpus(out)


def test_corpus_outputs_equal_golden(corpus_run):
    _, digests = corpus_run
    golden = dict(reversed(line.split()) for line in GOLDEN.read_text().splitlines())
    changed = sorted(n for n in golden.keys() | digests.keys()
                     if golden.get(n) != digests.get(n))
    assert not changed, f"{len(digests)} files, differing from {GOLDEN.name}: {changed}"


def test_corpus_exports_every_metric_in_both_formats():
    written = {(out.metric, out.format) for scenario in SCENARIOS
               for out in load_scenario(scenario).outputs}
    assert written == set(product(METRICS, ("csv", "json")))


# What the corpus is for: each behaviour the paper suite never runs, as a
# predicate over a corpus scenario and its summary that some file satisfies.
def _lossy(cfg) -> bool:
    return any(p.loss_rate for p in cfg.paths)


PURPOSES = {
    "loss under static, capped by max_hold_us": lambda cfg, s: (
        cfg.reorder.kind == "static" and _lossy(cfg) and s["dropped"]
        and (cfg.reorder.static_threshold_us or 0) > cfg.reorder.max_hold_us),
    "loss under static, at the RTT gap": lambda cfg, s: (
        cfg.reorder.kind == "static" and _lossy(cfg) and s["dropped"]
        and cfg.reorder.static_threshold_us is None),
    "loss under adaptive": lambda cfg, s: (
        cfg.reorder.kind == "adaptive" and _lossy(cfg) and s["dropped"]),
    "equalizer discards under loss": lambda cfg, s: (
        cfg.reorder.kind == "delay_equalize" and s["dropped"] and s["discarded"]),
    "a latency decrease": lambda cfg, s: any(
        later.latency_us < earlier
        for p in cfg.paths
        for earlier, later in zip([p.one_way_latency_us]
                                  + [step.latency_us for step in p.latency_steps],
                                  p.latency_steps)),
    "3 paths": lambda cfg, s: len(cfg.paths) == 3,
    "8 paths": lambda cfg, s: len(cfg.paths) == 8,
    "cheapest_pipe_first with costs": lambda cfg, s: (
        cfg.scheduler.kind == "cheapest_pipe_first" and len({p.cost for p in cfg.paths}) > 1),
    "start_us and stop_us": lambda cfg, s: (
        cfg.traffic.start_us > 0 and cfg.traffic.stop_us is not None),
    "pdv_stream arrivals": lambda cfg, s: cfg.pdv_stream == "arrivals",
    "an undrained run": lambda cfg, s: not s["drained"],
    "no pdv sample": lambda cfg, s: s["pdv"]["count"] == 0,
}


@pytest.mark.parametrize("purpose", PURPOSES)
def test_corpus_runs_what_the_paper_suite_does_not(corpus_run, purpose):
    out, _ = corpus_run
    assert any(
        PURPOSES[purpose](load_scenario(scenario),
                          json.loads((out / scenario.stem / "summary.json").read_text()))
        for scenario in SCENARIOS)


if __name__ == "__main__":
    # --write: regenerate the golden digests from this tree.
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_corpus(Path(tmp))
    GOLDEN.write_text("".join(f"{d}  {name}\n" for name, d in digests.items()))
    print(f"{GOLDEN}: {len(digests)} files")
