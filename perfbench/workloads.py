"""Benchmark workloads: set-up, the measured loop, correctness checks, metrics.

Everything here drives the public lasp API the way a user script would:
``data.make_synthetic_dataset`` -> ``PromptedClip`` -> ``Trainer.fit``, then
``evaluate_standard`` / ``evaluate_generalized``. The traced run patches the
same callables from outside (see ``layer_targets``); lasp itself is not
modified.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import lasp.data as lasp_data
import lasp.evaluator as lasp_evaluator
import lasp.model as lasp_model
import lasp.trainer as lasp_trainer
from lasp.autodiff import Tensor
from lasp.encoders import (EncoderConfig, TextEncoder, VisionEncoder,
                           trainable_parameters)
from lasp.model import PromptedClip
from lasp.prompts import (ClassVocabulary, init_prompts_from_words,
                          load_template_bank, split_templates)
from lasp.tokenizer import Tokenizer
from lasp.trainer import TrainConfig, Trainer, sample_few_shot

from spans import Tracer

PROMPT_WORDS = ["a", "photo", "of", "a"]
TEMPLATES = "6"
MODES = ("learned", "zero-shot")
TRACE_ROUNDS = 3             # untraced/traced slice pairs in a traced run

# tape node kinds reported by ``autodiff.nodes.<op>``; anything else is "other"
TAPE_OPS = ("add", "neg", "mul", "pow", "exp", "log", "abs", "tanh",
            "reshape", "transpose", "getitem", "sum", "matmul", "concat",
            "stack", "log_softmax", "leaf", "other")


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    groups: int = 3
    ln_finetune: bool = False
    batch_size: int = 16
    virtual: bool = False        # new names + distractor names as virtual classes
    epochs: int = 10             # per fit; a run repeats the same fit
    n_classes: int = 10          # base classes, and as many new ones
    test_samples: int = 20       # test images per class
    center_steps: int = 600      # fixture center ascent
    shots: int = 16
    distractors: int = 10
    setups: int = 3              # set-up repeats; setup_s is their median
    tail_pct: float = 95.0       # call_ms_tail percentile

    @property
    def min_calls(self) -> int:
        """Timed calls needed for ten of them to lie beyond ``tail_pct``."""
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)


WORKLOADS = {
    "train-text": Workload("train-text", train=True, groups=3,
                           batch_size=16, virtual=True, epochs=10),
    "train-vision": Workload("train-vision", train=True, groups=1,
                             ln_finetune=True, batch_size=64, epochs=30),
    "eval-sweep": Workload("eval-sweep", train=False, groups=3,
                           test_samples=100),
}


def tiny(w: Workload) -> Workload:
    """The same workload shape at sizes that run in about a second."""
    return replace(w, n_classes=3, test_samples=3, center_steps=3, shots=4,
                   epochs=3, distractors=2, setups=1, tail_pct=50.0)


# -- operations and correctness checks -----------------------------------------


@dataclass
class Ops:
    """Steps, passes and correctness checks, each one operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def crash(self, what: str, exc: BaseException, counted: bool):
        """Record an exception; ``counted`` if its operation is already attempted."""
        traceback.print_exception(exc, file=sys.stderr)
        self.attempted += 0 if counted else 1
        self.failed += 1
        self.failures.append(f"{what}: {exc!r}")


def loss_checks(rows, steps_per_epoch: int) -> list[tuple[str, bool]]:
    """Checks on one fit's log rows ``(epoch, step, lr, l_vl, l_tt, total)``."""
    losses = np.array([r[3:6] for r in rows], dtype=np.float64).reshape(-1, 3)
    finite = bool(losses.size) and bool(np.isfinite(losses).all())
    totals = losses[:, 2]
    first = totals[:steps_per_epoch].mean() if finite else math.nan
    last = totals[-steps_per_epoch:].mean() if finite else math.nan
    return [("every step loss is finite", finite),
            ("last-epoch mean loss below first-epoch mean", finite and last < first)]


def accuracy_checks(reports) -> list[tuple[str, bool]]:
    accs = [a for r in reports for a in (r.base_acc, r.new_acc, r.h)]
    return [("accuracies lie in [0, 100]",
             all(0.0 <= a <= 100.0 for a in accs))]


def candidate_set_checks(std, gen, gen_d) -> list[tuple[str, bool]]:
    """Learned-mode scores are per class, so more candidates can only lose."""
    return [("generalized accuracy <= standard accuracy",
             gen.base_acc <= std.base_acc and gen.new_acc <= std.new_acc),
            ("accuracy with distractors <= without",
             gen_d.base_acc <= gen.base_acc and gen_d.new_acc <= gen.new_acc)]


# -- set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    enc: EncoderConfig
    fixture: lasp_data.SyntheticDataset
    model: PromptedClip
    distractors: list[str]
    trainer: Trainer | None = None
    train_set: lasp_trainer.FewShotDataset | None = None
    initial: dict[str, np.ndarray] = field(default_factory=dict)


def set_up(w: Workload, seed: int) -> Setup:
    """Fixture build through the constructed model/Trainer, anchors included."""
    enc = EncoderConfig()
    spec = lasp_data.SyntheticDatasetSpec(
        n_base=w.n_classes, n_new=w.n_classes, test_samples=w.test_samples,
        separation=16.0, context_shift=0.3, center_steps=w.center_steps,
        seed=seed)
    fixture = lasp_data.make_synthetic_dataset(spec, enc,
                                               template_source=TEMPLATES)
    # distractors continue the fixture's own draw from the class-word pool
    pool = lasp_data._class_word_pool()
    order = np.random.default_rng(seed).permutation(len(pool))
    used = 2 * w.n_classes
    distractors = [pool[int(i)] for i in order[used:used + w.distractors]]
    bank = split_templates(load_template_bank(TEMPLATES), w.groups, 0)
    prompt_set = init_prompts_from_words(
        TextEncoder(enc), Tokenizer(max_len=enc.max_len), PROMPT_WORDS,
        w.groups, enc.d, seed, jitter=0.3)
    model = PromptedClip(enc, prompt_set, bank)
    s = Setup(enc, fixture, model, distractors)
    if w.train:
        virtual = (tuple(fixture.new_names) + tuple(distractors)
                   if w.virtual else ())
        cfg = TrainConfig(epochs=w.epochs, warmup_epochs=1, lr=0.02,
                          batch_size=w.batch_size, shots=w.shots,
                          groups=w.groups, ln_finetune=w.ln_finetune,
                          seed=seed, virtual_classes=virtual)
        s.trainer = Trainer(model, ClassVocabulary(list(fixture.base_names)),
                            cfg)
        pool_set = fixture.splits["base-train"]
        s.train_set = sample_few_shot(pool_set.images, pool_set.labels,
                                      cfg.shots, seed)
        s.initial = {k: p.data.copy() for k, p in trainable_parameters(
            model.prompt_set, model.vision_encoder, True).items()}
    return s


# -- measured loops ---------------------------------------------------------------


@dataclass
class Timings:
    calls_ms: list[float] = field(default_factory=list)   # train_step / evaluate_split
    busy_s: float = 0.0          # wall time of whole fits or passes
    images: int = 0              # images trained on or classified
    units: int = 0               # fits or passes
    final_loss: float = math.nan
    h_acc: float = math.nan
    new_acc: float = math.nan


def _timed(fn, sink: list[float]):
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        sink.append(1e3 * (time.perf_counter() - t0))
        return out
    return call


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def train_loop(w: Workload, s: Setup, t: Timings, seconds: float,
               min_calls: int, ops: Ops, tracer: Tracer | None = None):
    """Repeat one identical fit (state restored each time) until time is up."""
    trainer = s.trainer
    params = trainable_parameters(s.model.prompt_set, s.model.vision_encoder,
                                  True)
    steps_per_epoch = math.ceil(len(s.train_set) / w.batch_size)
    step = trainer.train_step         # resolved now: traced if tracer installed
    in_step = False

    def counted_step(*args, **kwargs):
        nonlocal in_step
        ops.attempted += 1
        in_step = True
        out = step(*args, **kwargs)
        in_step = False
        return out

    trainer.train_step = _timed(counted_step, t.calls_ms)
    goal = len(t.calls_ms) + min_calls
    deadline = time.perf_counter() + seconds
    try:
        while len(t.calls_ms) < goal or time.perf_counter() < deadline:
            for k, p in params.items():
                p.data[...] = s.initial[k]
            t0 = time.perf_counter()
            with _span(tracer, "bench.fit"):
                log = trainer.fit(s.train_set)
            t.busy_s += time.perf_counter() - t0
            t.units += 1
            t.images += w.epochs * len(s.train_set)
            for name, ok in loss_checks(log.rows, steps_per_epoch):
                ops.check(name, ok)
            t.final_loss = float(np.mean([r[5] for r in log.rows[-steps_per_epoch:]]))
        with _span(tracer, "bench.eval"):
            data = s.fixture
            rep = lasp_evaluator.evaluate_standard(
                s.model, data.splits["base-test"], data.splits["new-test"],
                data.base_names, data.new_names)
        for name, ok in accuracy_checks([rep]):
            ops.check(name, ok)
        t.h_acc, t.new_acc = rep.h, rep.new_acc
    except Exception as exc:      # a failed step ends the run, as it would a user's
        ops.crash("train", exc, counted=in_step)
    finally:
        del trainer.train_step


def eval_pass(s: Setup, model: PromptedClip) -> dict[str, tuple]:
    """evaluate_standard and evaluate_generalized in both modes."""
    data = s.fixture
    bt, nt = data.splits["base-test"], data.splits["new-test"]
    base, new = data.base_names, data.new_names
    out = {}
    for mode in MODES:
        std = lasp_evaluator.evaluate_standard(model, bt, nt, base, new, mode)
        gen, gen_d = lasp_evaluator.evaluate_generalized(
            model, bt, nt, base, new, s.distractors, mode)
        out[mode] = (std, gen, gen_d)
    return out


def eval_loop(w: Workload, s: Setup, t: Timings, seconds: float,
              min_calls: int, ops: Ops, tracer: Tracer | None = None):
    """Repeat whole evaluation passes until time is up."""
    data = s.fixture
    per_pass = len(MODES) * 3 * (len(data.splits["base-test"])
                                 + len(data.splits["new-test"]))
    split = lasp_evaluator.evaluate_split
    lasp_evaluator.evaluate_split = _timed(split, t.calls_ms)
    goal = len(t.calls_ms) + min_calls
    deadline = time.perf_counter() + seconds
    try:
        while len(t.calls_ms) < goal or time.perf_counter() < deadline:
            # a fresh model per pass: each pass pays for its anchors, as a
            # separate eval run would; the prompts are shared
            model = PromptedClip(s.enc, s.model.prompt_set, s.model.bank)
            ops.attempted += 1
            t0 = time.perf_counter()
            with _span(tracer, "bench.pass"):
                reports = eval_pass(s, model)
            t.busy_s += time.perf_counter() - t0
            t.units += 1
            t.images += per_pass
            for name, ok in accuracy_checks(r for rs in reports.values() for r in rs):
                ops.check(name, ok)
            for name, ok in candidate_set_checks(*reports["learned"]):
                ops.check(name, ok)
            std = reports["learned"][0]
            t.h_acc, t.new_acc = std.h, std.new_acc
    except Exception as exc:
        ops.crash("eval pass", exc, counted=True)
    finally:
        lasp_evaluator.evaluate_split = split


def measure(w: Workload, s: Setup, t: Timings, seconds: float, min_calls: int,
            ops: Ops, tracer: Tracer | None = None):
    """Add ``seconds`` (and at least ``min_calls`` calls) of work to ``t``."""
    loop = train_loop if w.train else eval_loop
    loop(w, s, t, seconds, min_calls, ops, tracer)


# -- machine ----------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run: end-to-end metrics ------------------------------------------------


def untraced(w: Workload, seed: int, seconds: float) -> dict:
    ops = Ops()
    setup_s = []
    t = Timings()
    # set-ups alternate with equal slices of the measurement, so both sample
    # the machine over the whole run rather than over one stretch of it
    for _ in range(w.setups):
        t0 = time.perf_counter()
        s = set_up(w, seed)
        setup_s.append(time.perf_counter() - t0)
        measure(w, s, t, seconds / w.setups,
                math.ceil(w.min_calls / w.setups), ops)
    calls = t.calls_ms or [math.nan]
    # A shared host switches between a fast and a slow speed every few
    # seconds, in a mix that changes from run to run. The median and the
    # throughput follow that mix; p90 and the tail fall in the slow speed,
    # which holds steady, so only those carry a bound.
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "call_ms_p90": (float(np.percentile(calls, 90)), "ms"),
        "call_ms_tail": (float(np.percentile(calls, w.tail_pct)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "images_per_s": (t.images / t.busy_s if t.busy_s else math.nan, "1/s"),
        "call_ms_p50": (float(np.percentile(calls, 50)), "ms"),
        "error_rate": (ops.failed / max(ops.attempted, 1), "ratio"),
        "final_loss": (t.final_loss, "nats"),
        "h_acc": (t.h_acc, "%"),
        "new_acc": (t.new_acc, "%"),
        "call_ms_tail_pct": (w.tail_pct, "percentile"),
        "calls": (len(t.calls_ms), "count"),
        "units": (t.units, "fits" if w.train else "passes"),
        "setups": (len(setup_s), "count"),
    }
    return {"ops": ops, "metrics": metrics, "detail": detail}


# -- traced run: per-layer metrics -----------------------------------------------


def _op_name(node: Tensor) -> str:
    if node._backward is None:
        return "leaf"
    # closures are named like "Tensor.__add__.<locals>.bw" or "concat.<locals>.bw"
    op = node._backward.__qualname__.split(".<locals>")[0].rsplit(".", 1)[-1]
    op = op.strip("_")
    return op if op in TAPE_OPS else "other"


def tape_census(root: Tensor, *args, **kwargs) -> dict:
    """Tape nodes reachable from ``root`` (leaves included), by op."""
    seen: set[int] = set()
    todo = [root]
    by_op: dict[str, int] = {}
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        op = _op_name(node)
        by_op[op] = by_op.get(op, 0) + 1
        todo.extend(node._parents)
    return {"nodes": len(seen), "ops": by_op}


def layer_targets(tracer: Tracer):
    """The public callables each layer is entered through.

    ``trainer`` imports ``vl_loss`` and ``grouped_tt_loss`` by name and
    ``model`` imports ``assemble_learnable_prompt`` by name, so those are
    patched in the importing module.
    """
    def first(key):
        return lambda self, x, *a, **k: {key: int(x.shape[0])}

    tracer.target(lasp_data, "make_synthetic_dataset", "data.fixture")
    tracer.target(PromptedClip, "anchors", "model.anchors")
    tracer.target(PromptedClip, "class_rows", "model.class_rows")
    tracer.target(PromptedClip, "encode_images", "model.encode_images")
    tracer.target(lasp_model, "assemble_learnable_prompt", "prompts.assemble")
    tracer.target(TextEncoder, "encode_batch", "encoders.text", first("seqs"))
    tracer.target(VisionEncoder, "encode_batch", "encoders.vision",
                  first("images"))
    tracer.target(lasp_trainer, "vl_loss", "losses.vl")
    tracer.target(lasp_trainer, "grouped_tt_loss", "losses.tt")
    tracer.target(Tensor, "backward", "autodiff.backward", tape_census)
    tracer.target(Trainer, "train_step", "trainer.step")
    tracer.target(lasp_evaluator, "evaluate_split", "evaluator.split",
                  lambda model, dataset, *a, **k: {"split": dataset.split})


def per_layer(w: Workload, tracer: Tracer, plain: Timings,
              traced: Timings) -> dict:
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def within(scope: str) -> list[list]:
        return list(tracer.under(scope).values())

    def ancestor(s, name: str):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return s
        return None

    def per(groups, name, value=lambda s: 1.0) -> float:
        total = sum(value(s) for g in groups for s in g if s.name == name)
        return total / len(groups) if groups else 0.0

    def ms(s):
        return 1e3 * s.duration

    # per unit of work: a train step, or an evaluation pass
    unit = within("trainer.step" if w.train else "bench.pass")
    # anchors are computed at set-up when training, inside passes when evaluating
    anchor_scope = within("bench.setup" if w.train else "bench.pass")
    fit_scope = within("bench.fit" if w.train else "bench.pass")
    eval_scope = within("bench.eval" if w.train else "bench.pass")
    encoded = {ancestor(s, "model.anchors").id for s in spans
               if s.name == "encoders.text" and ancestor(s, "model.anchors")}
    selfs = tracer.self_times()
    steps = [s for s in spans if s.name == "trainer.step"]
    splits = [s for s in spans if s.name == "evaluator.split"]
    distinct = len({s.attrs["split"] for s in splits})
    split_encodes = sum(1 for s in spans if s.name == "model.encode_images"
                        and ancestor(s, "evaluator.split"))
    fixtures = [s.duration for s in spans if s.name == "data.fixture"]

    m = {
        "data.fixture_s": (statistics.mean(fixtures) if fixtures else 0.0, "s"),
        "model.anchors_ms": (per(anchor_scope, "model.anchors", ms), "ms"),
        "model.anchors_calls": (per(anchor_scope, "model.anchors"), "count"),
        "model.anchors_encodes": (
            per(anchor_scope, "model.anchors",
                lambda s: 1.0 if s.id in encoded else 0.0), "count"),
        "model.class_rows_ms": (per(unit, "model.class_rows", ms), "ms"),
        "model.class_rows_calls": (per(unit, "model.class_rows"), "count"),
        "prompts.assemble_ms": (per(unit, "prompts.assemble", ms), "ms"),
        "prompts.assemble_calls": (per(unit, "prompts.assemble"), "count"),
        "encoders.text_ms": (per(unit, "encoders.text", ms), "ms"),
        "encoders.text_batches": (per(unit, "encoders.text"), "count"),
        "encoders.text_seqs": (
            per(unit, "encoders.text", lambda s: s.attrs["seqs"]), "count"),
        "model.encode_images_ms": (per(unit, "model.encode_images", ms), "ms"),
        "model.encode_images_calls": (
            per(fit_scope, "model.encode_images"), "count"),
        "encoders.vision_ms": (per(unit, "encoders.vision", ms), "ms"),
        "encoders.vision_images": (
            per(unit, "encoders.vision", lambda s: s.attrs["images"]), "count"),
        "losses.vl_ms": (per(unit, "losses.vl", ms), "ms"),
        "losses.tt_ms": (per(unit, "losses.tt", ms), "ms"),
        "autodiff.backward_ms": (per(unit, "autodiff.backward", ms), "ms"),
        "autodiff.nodes": (
            per(unit, "autodiff.backward", lambda s: s.attrs["nodes"]), "count"),
    }
    for op in TAPE_OPS:
        m[f"autodiff.nodes.{op}"] = (
            per(unit, "autodiff.backward",
                lambda s, op=op: s.attrs["ops"].get(op, 0)), "count")
    m.update({
        "trainer.step_self_ms": (
            1e3 * statistics.mean(selfs[s.id] for s in steps) if steps else 0.0,
            "ms"),
        "evaluator.split_ms": (
            1e3 * statistics.mean(s.duration for s in splits) if splits else 0.0,
            "ms"),
        "evaluator.encodes_per_split": (
            split_encodes / (distinct * len(eval_scope))
            if distinct and eval_scope else 0.0, "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced.calls_ms)
                     / statistics.median(plain.calls_ms) - 1.0)
            if traced.calls_ms and plain.calls_ms else 0.0, "%"),
        "trainer.final_loss": (0.0 if math.isnan(traced.final_loss)
                               else traced.final_loss, "nats"),
        "evaluator.h_acc": (traced.h_acc, "%"),
        "evaluator.new_acc": (traced.new_acc, "%"),
    })
    return m


def traced(w: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Set up traced, then measure half the time untraced (the overhead
    baseline) and half traced."""
    ops = Ops()
    tracer = Tracer(f"{w.name}-seed{seed}-{uuid.uuid4().hex[:8]}")
    layer_targets(tracer)
    with tracer.installed(), tracer.span("bench.setup"):
        s = set_up(w, seed)
    plain, t = Timings(), Timings()
    # untraced and traced slices alternate, so a change in machine speed
    # during the run reaches both sides of trace.overhead_pct alike
    slices = 2 * TRACE_ROUNDS
    for _ in range(TRACE_ROUNDS):
        measure(w, s, plain, seconds / slices,
                math.ceil(w.min_calls / slices), ops)
        with tracer.installed():
            measure(w, s, t, seconds / slices,
                    math.ceil(w.min_calls / slices), ops, tracer)
    metrics = per_layer(w, tracer, plain, t)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{tracer.run_id}.jsonl"
    tracer.write(path)
    detail = {"error_rate": (ops.failed / max(ops.attempted, 1), "ratio"),
              "spans": (len(tracer.spans), "count"),
              "spans_file": (path.name, "file")}
    return {"ops": ops, "metrics": metrics, "detail": detail}


def run(w: Workload, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    res = traced(w, seed, seconds, out_dir) if trace else untraced(w, seed, seconds)
    ops = res["ops"]
    metrics = res["metrics"]
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = ops.failed == 0 and finite
    report = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in res["detail"].items()},
              "failures": ops.failures}
    result = {"correct": correct, "attempted": max(ops.attempted, 1),
              "failed": ops.failed,
              "metrics": report["metrics"]}
    return {"report": report, "result": result}
