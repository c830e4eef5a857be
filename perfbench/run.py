#!/usr/bin/env python3
"""chunkdoc benchmark: two workloads timed end to end through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload long_docs --seed 1 --seconds 55 --trace 0

Each run writes seeded synthetic inputs under .perfbench/work/ (removed at
exit) and drives ``chunkdoc.cli.main`` in process, as one caller in a closed
loop: the next command starts when the previous one returns. Every command's
output is checked; a failed check counts as a failed operation and the run
goes on. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics. --trace 1 runs the session once
untraced, then replays the same work through the layers' public functions
with spans (written to .perfbench/spans/) and reports per-layer metrics.
Run metadata goes to stdout before the result and, with the result, to
.perfbench/results/. WORKLOADS.md explains the workloads.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import runinfo
from workloads import WORKLOADS, Workload, tiny

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _import_program():
    """Import chunkdoc from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chunkdoc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no chunkdoc sources under {src}")
    sys.path.insert(0, str(src))
    import chunkdoc
    from chunkdoc import cli
    from chunkdoc.synthetic import SyntheticSpec, generate_synthetic_corpus
    if Path(chunkdoc.__file__).resolve().parent != (src / "chunkdoc").resolve():
        raise SystemExit(f"perfbench: imported chunkdoc from {chunkdoc.__file__}, not {src}")
    return cli, SyntheticSpec, generate_synthetic_corpus


cli, SyntheticSpec, generate_synthetic_corpus = _import_program()
import replay  # noqa: E402  (imports chunkdoc, so it follows _import_program)

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "test_macro_f1_linear": "ratio",
    "test_macro_f1_svm": "ratio",
    "predict_ms_p90": "ms",
    "predict_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def _write_tree(root: Path, corpus) -> None:
    for doc in corpus:
        path = root / f"{doc.id}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc.raw_text, encoding="utf-8")


class Session:
    """One run's inputs, config and run directory, plus a ledger of CLI calls.

    Each CLI call is one operation. It fails on a non-zero exit code or a
    failed output check; failures are counted and reported on stderr.
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.corpus_root = self.inputs / "corpus"
        self.config_path = work / "config.json"
        self.labels = workload.labels()
        self.config = workload.run_config(str(self.corpus_root), str(work / "runs"), seed)
        self.run_dir = Path(self.config["output_dir"]) / self.config["run_name"]
        self.attempted = 0
        self.failed = 0
        self.heldout: list[tuple[Path, str]] = []

    def make_inputs(self) -> None:
        """Training corpus from seed [seed, 0]; held-out documents from [seed, 1]."""
        spec = dict(self.workload.corpus)
        corpus = generate_synthetic_corpus(SyntheticSpec(**spec), [self.seed, 0])
        _write_tree(self.corpus_root, corpus)
        spec["docs_per_class"] = self.workload.heldout_per_class
        heldout = generate_synthetic_corpus(SyntheticSpec(**spec), [self.seed, 1])
        _write_tree(self.inputs / "heldout", heldout)
        # interleave labels so any prefix of the cycle covers every class
        by_label = [[d for d in heldout if d.label == lab] for lab in self.labels]
        self.heldout = [(self.inputs / "heldout" / f"{d.id}.txt", d.label)
                        for group in zip(*by_label) for d in group]
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")

    # -- CLI operations --------------------------------------------------

    def _call(self, *argv) -> tuple[int | None, float, str]:
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = cli.main([argv[0], "--config", str(self.config_path), *argv[1:]])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one broken operation must not end the run
            traceback.print_exc()
            code = None
        return code, time.perf_counter() - start, out.getvalue()

    def _settle(self, what: str, code, problem: str | None) -> bool:
        if code != 0:
            problem = f"exit code {code}"
        if problem is None:
            return True
        self.failed += 1
        print(f"perfbench: {what} failed: {problem}", file=sys.stderr)
        return False

    def prepare(self) -> float | None:
        code, elapsed, _ = self._call("prepare")
        problem = None if (self.run_dir / "split.json").is_file() else "no split.json"
        return elapsed if self._settle("prepare", code, problem) else None

    def train(self) -> float | None:
        code, elapsed, _ = self._call("train")
        problem = None if code != 0 else self._check_train()
        return elapsed if self._settle("train", code, problem) else None

    def _check_train(self) -> str | None:
        for name in ("pvdm.bin", "aggregator.bin", "svm.bin", "chunk_embeddings.tsv"):
            if not (self.run_dir / name).is_file():
                return f"missing {name}"
        if (self.run_dir / "INCOMPLETE").exists():
            return "INCOMPLETE marker left behind"
        with open(self.run_dir / "chunk_embeddings.tsv", encoding="utf-8") as f:
            for line in f:
                values = np.array(line.rstrip("\n").split("\t")[2:], dtype=np.float64)
                if values.size == 0 or not np.isfinite(values).all():
                    return f"non-finite or empty chunk vector: {line[:60]!r}"
        return None

    def evaluate(self) -> tuple[float, dict[str, float]] | None:
        reports = {head: self.run_dir / f"eval_test_{head}.json" for head in ("linear", "svm")}
        for path in reports.values():
            path.unlink(missing_ok=True)
        code, elapsed, _ = self._call("evaluate", "--split", "test")
        f1, problem = {}, None
        for head, path in reports.items():
            try:
                f1[head] = float(json.loads(path.read_text(encoding="utf-8"))["macro_f1"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"{path.name}: {exc!r}"
                continue
            if not 0.0 <= f1[head] <= 1.0:
                problem = f"{path.name}: macro_f1 {f1[head]} outside [0, 1]"
        return (elapsed, f1) if self._settle("evaluate", code, problem) else None

    def predict(self, path: Path) -> tuple[float, dict] | None:
        code, elapsed, out = self._call("predict", str(path))
        problem, answer = None, None
        try:
            answer = json.loads(out.strip().splitlines()[-1])
            probs = answer["probabilities"]
            if answer["label"] not in self.labels:
                problem = f"label {answer['label']!r} not in the label set"
            elif sorted(probs) != sorted(self.labels):
                problem = f"probabilities over {sorted(probs)}"
            elif abs(sum(probs.values()) - 1.0) > 1e-6:
                problem = f"probabilities sum to {sum(probs.values())!r}"
        except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable output {out[-200:]!r}: {exc!r}"
        return (elapsed, answer) if self._settle(f"predict {path.name}", code, problem) else None


def _need(samples: list, what: str) -> list:
    if not samples:
        raise SystemExit(f"perfbench: no successful {what}; no result")
    return samples


def p90(samples: list[float]) -> float:
    """The 90th percentile. On a shared host whose speed drifts, it repeats
    better from run to run than the median (WORKLOADS.md, "Noise, and the bounds")."""
    return float(np.percentile(samples, 90))


def measure(session: Session, seconds: float) -> tuple[dict, list[str], dict]:
    """The end-to-end run: rounds of prepare, train, evaluate and predict in a
    closed loop for `seconds`. Each time metric is the p90 of its samples."""
    w = session.workload
    setup, train, evaluate, predict, hits = [], [], [], [], []
    f1 = {"linear": [], "svm": []}
    heldout = itertools.cycle(session.heldout)
    timed, calls = False, 0
    start = time.perf_counter()
    while True:
        # the first round fills the file cache and runs lazily imported code;
        # its calls are checked but their samples are dropped
        round_start = time.perf_counter()
        prep, trained = session.prepare(), session.train()
        if timed and prep is not None and trained is not None:
            setup.append(prep + trained if w.setup_includes_train else prep)
            train.append(trained)
        for _ in range(w.evaluates_per_round):
            result = session.evaluate()
            if timed and result is not None:
                evaluate.append(result[0])
                for head, value in result[1].items():
                    f1[head].append(value)
        for _ in range(w.predicts_per_round):
            path, gold = next(heldout)
            result = session.predict(path)
            if not timed:
                continue
            calls += 1
            if result is not None:
                predict.append(result[0])
                hits.append(result[1]["label"] == gold)
        timed = True
        now = time.perf_counter()
        # stop at the round end nearest to `seconds`
        if now - start + (now - round_start) / 2 > seconds and calls >= w.min_predicts:
            break

    predict_ms = [1000.0 * t for t in _need(predict, "predict")]
    metrics = {
        "setup_s": p90(_need(setup, "set-up")),
        "train_s": p90(_need(train, "train")),
        "evaluate_s": p90(_need(evaluate, "evaluate")),
        "test_macro_f1_linear": statistics.median(_need(f1["linear"], "linear F1 report")),
        "test_macro_f1_svm": statistics.median(_need(f1["svm"], "SVM F1 report")),
        "predict_ms_p90": p90(predict_ms),
        "predict_accuracy": sum(hits) / len(hits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(set(f1["linear"])) > 1 or len(set(f1["svm"])) > 1:
        print(f"perfbench: warning: F1 differs between rounds: {f1}", file=sys.stderr)
    notes = [
        f"p90 of each time after the first round: {len(setup)} set-ups "
        f"({'prepare + train' if w.setup_includes_train else 'prepare'}), "
        f"{len(train)} trains, {len(evaluate)} evaluates",
        f"predict_ms_p90: {len(predict_ms)} calls, one caller, closed loop",
        f"error_rate: {session.failed / session.attempted:.6g} "
        f"({session.failed} failed of {session.attempted} operations)",
    ]
    samples = {"setup_s": setup, "train_s": train, "evaluate_s": evaluate, "predict_ms": predict_ms}
    return metrics, notes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: the same workload at self-test size")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.scale == "tiny":
        workload = tiny(workload)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.scale}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workload, args.seed, work)
        session.make_inputs()
        meta = runinfo.collect(
            ROOT, workload=workload.name, seed=args.seed, seconds=args.seconds,
            trace=args.trace, scale=args.scale,
            inputs_sha256=runinfo.inputs_digest(session.inputs), config=session.config,
        )
        if args.trace:
            metrics, units, notes, samples = replay.traced(session, args.seconds,
                                                           OUT / "spans" / f"{tag}.jsonl")
        else:
            (metrics, notes, samples), units = measure(session, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "notes": notes, "samples": samples, "result": result}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                 encoding="utf-8")
    print(json.dumps({"meta": meta}, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
