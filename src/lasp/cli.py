"""Command-line front end: training, evaluation, ablations, reports, and
writing the fixture to files.

Configuration is a flat ``key = value`` text file; every key has a default
so a config file is optional. ``--set key=value`` overrides win over the
file, ``--seed`` wins over both for the seed. Each run writes its resolved
configuration to ``config.echo`` inside the run directory, and nothing is
written outside that directory. ``lasp fixture --out D`` writes the
configured dataset's splits to ``D`` as image files plus ``manifest.json``;
``--set manifest=D/manifest.json`` then runs any command on them.

Exit codes: 0 ok, 2 usage/config error, 3 data error, 4 divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .data import (SyntheticDatasetSpec, load_dataset, load_manifest,
                   make_synthetic_dataset, permuted_class_words, write_dataset)
from .encoders import IMAGE_SHAPE, EncoderConfig, text_tower
from .errors import ConfigError, DataError, DivergenceError
from .evaluator import (MODES, EvalReport, centroid_distance_matrix,
                        evaluate_generalized, evaluate_standard)
from .model import PromptedClip
from .prompts import (ClassVocabulary, TemplateBank, generate_random_templates,
                      init_prompts, init_prompts_from_words,
                      load_template_bank, split_templates)
from .trainer import (TrainConfig, Trainer, load_checkpoint, sample_few_shot,
                      save_checkpoint)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

# The dataclass fields a config sets, by config key. Their defaults are the
# fields' own, written as strings (a bool as "0" or "1").
_TRAIN_KEYS = {f.name: f for f in fields(TrainConfig)
               if f.name not in ("virtual_classes", "divergence_limit")}
_SPEC_KEYS = {("data_seed" if f.name == "seed" else f.name): f
              for f in fields(SyntheticDatasetSpec)}

DEFAULTS = {
    "manifest": "",              # external dataset; empty -> synthetic fixture
    "templates": "6",            # 1 | 6 | 34 | 100 | path
    "m_prompts": "4",
    "prompt_words": "a photo of a",   # empty -> Gaussian vectors
    "virtual": "",               # "new" | comma-separated names | ""
    "mode": "learned",           # learned | zero-shot
    "checkpoint": "",            # eval: load this checkpoint before scoring
    "distractors": "10",         # distract: how many pool names to add
    **{key: str(int(f.default) if type(f.default) is bool else f.default)
       for key, f in {**_TRAIN_KEYS, **_SPEC_KEYS}.items()},
}


# -- config handling -----------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(path: str | None, overrides: list[str],
                   seed: int | None) -> dict[str, str]:
    cfg = dict(DEFAULTS)

    def merge(pairs: dict[str, str], origin: str):
        for k, v in pairs.items():
            if k not in DEFAULTS:
                raise ConfigError(f"{origin}: unknown config key {k!r}")
            cfg[k] = v

    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                merge(parse_config_text(fh.read()), path)
        except OSError as exc:
            raise DataError(f"cannot read config file {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        k, _, v = item.partition("=")
        merge({k.strip(): v.strip()}, "--set")
    if seed is not None:
        cfg["seed"] = str(seed)
    return cfg


def _num(cfg, key, kind):
    try:
        return kind(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}={cfg[key]!r} is not {kind.__name__}") from exc


def _flag(cfg, key) -> bool:
    v = cfg[key].lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"config key {key}={cfg[key]!r} is not a boolean")


def _parse(cfg, keys) -> dict:
    """The values of ``keys`` (config key -> dataclass field) in ``cfg``,
    by field name, each parsed as the type of the field's default."""
    out = {}
    for key, f in keys.items():
        kind = type(f.default)
        out[f.name] = (_flag(cfg, key) if kind is bool else
                       cfg[key] if kind is str else _num(cfg, key, kind))
    return out


# -- run directory -------------------------------------------------------------


def run_directory(out: str | None, command: str, cfg: dict[str, str]) -> str:
    if out:
        path = out
    else:
        root = os.environ.get("LASP_OUT_ROOT", "runs")
        path = os.path.join(root, f"{command}-seed{cfg['seed']}")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create run directory {path}: {exc}") from exc
    return path


def write_config_echo(run_dir: str, cfg: dict[str, str], command: str):
    lines = [f"command = {command}"] + [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    with open(os.path.join(run_dir, "config.echo"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report(run_dir: str, table: str, kv_lines: list[str]):
    with open(os.path.join(run_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(table.rstrip("\n") + "\n")
    with open(os.path.join(run_dir, "report.kv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(kv_lines) + "\n")


def write_matrix(run_dir: str, name: str, matrix: np.ndarray):
    os.makedirs(os.path.join(run_dir, "matrices"), exist_ok=True)
    np.savetxt(os.path.join(run_dir, "matrices", name), matrix, fmt="%.8f")


def finish(run_dir: str, table: str, kv_lines: list[str]) -> int:
    write_report(run_dir, table, kv_lines)
    print(table)
    return EXIT_OK


# -- shared builders -----------------------------------------------------------


class RunContext:
    """Dataset, class names, distractor names, train config, templates,
    the standard grid of variants and the distractor protocol, resolved
    from one config: the one place that assembles the standard experiment
    the CLI, the acceptance bench and ``scripts/run_benchmark.py`` run.

    Every key is parsed once, and the templates are loaded and split,
    before any data is built or loaded, so a bad value or a bad
    combination of values fails in well under a second.
    """

    def __init__(self, cfg: dict[str, str]):
        if cfg["mode"] not in MODES:
            raise ConfigError(f"config key mode={cfg['mode']!r} is not one of "
                              f"{', '.join(MODES)}")
        self.cfg = cfg
        self.enc_cfg = EncoderConfig()
        self.tcfg = TrainConfig(**_parse(cfg, _TRAIN_KEYS))
        self.m = _num(cfg, "m_prompts", int)
        if self.m < 1:
            raise ConfigError("config key m_prompts must be >= 1")
        if self.m > self.enc_cfg.max_len - 3:
            raise ConfigError(f"m_prompts={self.m} leaves no room for a class "
                              f"name: start, prompts, name and end must fit "
                              f"in {self.enc_cfg.max_len} tokens")
        phrase = cfg["prompt_words"]
        words = text_tower(self.enc_cfg).tokenizer.words_of(phrase)
        if phrase and not words:
            raise ConfigError(f"prompt words {phrase!r} yielded no tokens")
        if words and self.m > len(words):
            raise ConfigError(f"m_prompts={self.m} exceeds the {len(words)} "
                              f"words of prompt words {phrase!r}")
        self.words = words[:self.m]
        self.distractors = _num(cfg, "distractors", int)
        if self.distractors < 0:
            raise ConfigError("config key distractors must be >= 0")
        # checked even when a manifest replaces the fixture
        self.spec = SyntheticDatasetSpec(**_parse(cfg, _SPEC_KEYS))
        if not cfg["manifest"] and self.spec.n_base < 2:
            raise ConfigError("n_base must be >= 2 to classify base images")
        if not cfg["manifest"] and self.tcfg.shots > self.spec.samples_per_class:
            raise ConfigError(f"shots={self.tcfg.shots} exceeds samples_per_class"
                              f"={self.spec.samples_per_class}")
        virtual = cfg["virtual"].strip()
        named = tuple(n.strip() for n in virtual.split(",") if n.strip())
        for name in named:
            if named.count(name) > 1:
                raise ConfigError(f"config key virtual lists {name!r} more "
                                  f"than once")
        self.templates = load_template_bank(cfg["templates"])
        self._bank(self.tcfg.groups)    # checks the template count
        if cfg["manifest"]:
            manifest = load_manifest(cfg["manifest"])
            self.splits = load_dataset(manifest)
            for ds in self.splits.values():
                if ds.images.shape[1:] != IMAGE_SHAPE:
                    raise DataError(f"{ds.split} images have shape "
                                    f"{ds.images.shape[1:]}, the encoder takes "
                                    f"{IMAGE_SHAPE}")
            if len(manifest.base_classes) < 2:
                raise DataError(f"manifest {cfg['manifest']} has one base "
                                f"class; it takes two to classify base images")
            self.base_names = list(manifest.base_classes)
            self.new_names = list(manifest.new_classes)
        else:
            data = make_synthetic_dataset(self.spec, self.enc_cfg,
                                          template_source=self.templates)
            self.splits = data.splits
            self.base_names = list(data.base_names)
            self.new_names = list(data.new_names)
        self.tcfg = replace(self.tcfg, virtual_classes=(
            tuple(self.new_names) if virtual == "new" else named))

    def distractor_names(self) -> list[str]:
        """The first ``distractors`` names of the class-word pool permuted
        by ``data_seed`` that are not split names. On the synthetic fixture
        this continues the fixture's own draw of its split names."""
        used = set(self.base_names) | set(self.new_names)
        names = [n for n in permuted_class_words(self.spec.seed)
                 if n not in used]
        if len(names) < self.distractors:
            raise DataError(f"not enough pool words for {self.distractors} "
                            f"distractors: {len(names)} are not split names")
        return names[:self.distractors]

    def variants(self) -> dict[str, dict]:
        """The standard grid's ``train`` overrides by label. Every row names
        its virtual classes, so a row means the same whatever ``virtual``
        is configured to."""
        new = tuple(self.new_names)
        return {
            "baseline": dict(alpha_tt=0.0, virtual_classes=()),
            "lasp": dict(virtual_classes=()),
            "lasp-v": dict(virtual_classes=new),
            "l1": dict(loss_kind="l1", virtual_classes=new),
            "l2": dict(loss_kind="l2", virtual_classes=new),
            "lasp-v+distractors": dict(
                virtual_classes=new + tuple(self.distractor_names())),
        }

    def distractor_effect(self, plain: PromptedClip, aware: PromptedClip
                          ) -> tuple[list[tuple[str, EvalReport]], float, float]:
        """The distractor protocol: ``plain`` scored without and with the
        distractor names among the candidates, and ``aware`` (trained with
        them as virtual classes) scored with them. Returns those three rows,
        the drop and the recovery of the mean of base and new accuracy."""
        test = (self.splits["base-test"], self.splits["new-test"],
                self.base_names, self.new_names, self.distractor_names())
        wo, wd = evaluate_generalized(plain, *test)
        _, wd_aware = evaluate_generalized(aware, *test)
        mean = lambda r: 0.5 * (r.base_acc + r.new_acc)
        rows = [("no-distractors", wo), ("with-distractors", wd),
                ("virtual-aware", wd_aware)]
        return rows, mean(wo) - mean(wd), mean(wd_aware) - mean(wd)

    def _bank(self, groups: int) -> TemplateBank:
        """The configured templates split into ``groups`` groups."""
        if groups > 1:
            return split_templates(self.templates, groups, 0)
        return self.templates

    def build_model(self, tcfg: TrainConfig | None = None,
                    bank: TemplateBank | None = None) -> PromptedClip:
        """Untrained model with the prompt seed of ``tcfg`` (default: the
        configured train config) over ``bank``, or over the configured
        templates split into ``tcfg.groups`` groups. Each group's prompts
        start from the prompt words plus Gaussian jitter, or from small
        Gaussian vectors when there are no prompt words."""
        tcfg = tcfg or self.tcfg
        if bank is None:
            bank = self._bank(tcfg.groups)
        enc = self.enc_cfg
        if self.words:
            text = text_tower(enc)
            prompts = init_prompts_from_words(
                text, text.tokenizer, self.words, bank.groups, enc.d, tcfg.seed)
        else:
            prompts = init_prompts(bank.groups, self.m, enc.d_tok, enc.d,
                                   tcfg.seed)
        return PromptedClip(enc, prompts, bank)

    def train(self, bank: TemplateBank | None = None, **over):
        """Train a fresh model on ``shots`` images per base class with the
        configured train config updated by ``over``. ``seed=`` picks the
        run: it draws the initial prompts, the shots and the batch order."""
        if bank is not None:
            over["groups"] = bank.groups
        tcfg = replace(self.tcfg, **over)
        model = self.build_model(tcfg, bank)
        trainer = Trainer(model, ClassVocabulary(list(self.base_names)), tcfg)
        pool = self.splits["base-train"]
        log = trainer.fit(sample_few_shot(pool.images, pool.labels, tcfg.shots,
                                          tcfg.seed))
        return model, tcfg, log

    def evaluate(self, model: PromptedClip, mode: str = "learned") -> EvalReport:
        return evaluate_standard(model, self.splits["base-test"],
                                 self.splits["new-test"], self.base_names,
                                 self.new_names, mode=mode)

    def report(self, model: PromptedClip, run_dir: str,
               mode: str = "learned") -> int:
        """Standard evaluation plus the centroid matrix, written and printed."""
        rep = self.evaluate(model, mode)
        dist, rep.mean_distance = centroid_distance_matrix(model, self.base_names)
        write_matrix(run_dir, "centroid_distance.txt", dist)
        return finish(run_dir, rep.table(), rep.kv_lines())


# -- commands ------------------------------------------------------------------


def cmd_train(cfg: dict[str, str], run_dir: str) -> int:
    ctx = RunContext(cfg)
    model, tcfg, log = ctx.train()
    with open(os.path.join(run_dir, "train.log"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(log.lines()) + ("\n" if log.rows else ""))
    save_checkpoint(os.path.join(run_dir, "checkpoint.bin"), model, tcfg,
                    steps=len(log.rows))
    return ctx.report(model, run_dir)


def cmd_eval(cfg: dict[str, str], run_dir: str) -> int:
    ctx = RunContext(cfg)
    model = ctx.build_model()
    if cfg["checkpoint"]:
        load_checkpoint(cfg["checkpoint"], model)
    return ctx.report(model, run_dir, cfg["mode"])


def _grid_report(rows: list[tuple[str, EvalReport]]) -> tuple[str, list[str]]:
    width = max(len(n) for n, _ in rows)
    table = [f"{'config':<{width}}  {'base':>7}  {'new':>7}  {'H':>7}"]
    kv: list[str] = []
    for name, rep in rows:
        table.append(f"{name:<{width}}  {rep.base_acc:7.2f}  {rep.new_acc:7.2f}"
                     f"  {rep.h:7.2f}")
        kv += [f"base_acc, {name}, {rep.base_acc:.4f}",
               f"new_acc, {name}, {rep.new_acc:.4f}",
               f"harmonic_mean, {name}, {rep.h:.4f}"]
    return "\n".join(table), kv


def _grid(ctx: RunContext, run_dir: str,
          rows: list[tuple[str, dict]]) -> int:
    """Train and evaluate one model per ``(label, overrides)`` row, where
    ``overrides`` are ``RunContext.train`` arguments, and report the grid."""
    reps = [(label, ctx.evaluate(ctx.train(**over)[0])) for label, over in rows]
    return finish(run_dir, *_grid_report(reps))


def cmd_ablate_templates(cfg: dict[str, str], run_dir: str) -> int:
    ctx = RunContext(cfg)
    groups, seed = ctx.tcfg.groups, ctx.tcfg.seed
    counts = (1, 6, 34, 100)
    banks = ([(f"hand-{n}", load_template_bank(str(n))) for n in counts]
             + [(f"random-{n}", generate_random_templates(n, 3, 7, seed))
                for n in counts])
    rows = []
    for label, bank in banks:
        # a bank smaller than the group count trains a single group
        if len(bank) >= groups > 1:
            bank = split_templates(bank, groups, 0)
        rows.append((label, dict(bank=bank)))
    return _grid(ctx, run_dir, rows)


def cmd_ablate_loss(cfg: dict[str, str], run_dir: str) -> int:
    ctx = RunContext(cfg)
    return _grid(ctx, run_dir, [(kind, dict(loss_kind=kind))
                                for kind in ("ce", "l1", "l2")])


def cmd_ablate_components(cfg: dict[str, str], run_dir: str) -> int:
    """Cumulative ladder: baseline, +text-to-text, +grouped, +align, +virtual."""
    ctx = RunContext(cfg)
    steps = [("baseline", dict(alpha_tt=0.0, groups=1, ln_finetune=False,
                               virtual_classes=())),
             ("+text-to-text", dict(alpha_tt=ctx.tcfg.alpha_tt)),
             ("+grouped", dict(groups=ctx.tcfg.groups)),
             ("+align", dict(ln_finetune=True)),
             ("+virtual", dict(virtual_classes=ctx.tcfg.virtual_classes
                               or tuple(ctx.new_names)))]
    rows, over = [], {}
    for label, step in steps:
        over = {**over, **step}
        rows.append((label, over))
    return _grid(ctx, run_dir, rows)


def cmd_distract(cfg: dict[str, str], run_dir: str) -> int:
    ctx = RunContext(cfg)
    grid = ctx.variants()     # draws the distractors before any training
    plain, _, _ = ctx.train(**grid["lasp"])
    aware, _, _ = ctx.train(**grid["lasp-v+distractors"])
    rows, drop, recovered = ctx.distractor_effect(plain, aware)
    table, kv = _grid_report(rows)
    table += (f"\n\ndistractor names: {', '.join(ctx.distractor_names())}"
              f"\naccuracy drop: {drop:.2f}"
              f"\nrecovered by virtual classes: {recovered:.2f}")
    kv += [f"distractor_drop, all, {drop:.4f}",
           f"distractor_recovered, all, {recovered:.4f}"]
    return finish(run_dir, table, kv)


def cmd_fixture(cfg: dict[str, str], run_dir: str) -> int:
    """Write the configured dataset's splits into the run directory."""
    ctx = RunContext(cfg)
    path = write_dataset(run_dir, ctx.splits, ctx.base_names, ctx.new_names)
    print(f"wrote {path}")
    print(f"base classes: {', '.join(ctx.base_names)}")
    print(f"new classes:  {', '.join(ctx.new_names)}")
    return EXIT_OK


def cmd_report(cfg: dict[str, str], run_dir: str) -> int:
    path = os.path.join(run_dir, "report.kv")
    if not os.path.exists(path):
        raise DataError(f"no report.kv in {run_dir}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} holds no report lines")
    rows = []
    for ln in lines:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 3:
            raise DataError(f"malformed report line: {ln!r}")
        rows.append(parts)
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    out = "\n".join(f"{m:<{w0}}  {t:<{w1}}  {v:>10}" for m, t, v in rows)
    print(out)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------



def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lasp",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="run directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


HANDLERS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate-templates": cmd_ablate_templates,
    "ablate-loss": cmd_ablate_loss,
    "ablate-components": cmd_ablate_components,
    "distract": cmd_distract,
    "fixture": cmd_fixture,
    "report": cmd_report,
}


def run_reporting_errors(command, *args) -> int:
    """Return ``command(*args)``. If it raises a lasp error, print the error
    as one ``error:`` line on stderr and return that error's exit code
    instead. The CLI and the scripts under ``scripts/`` all exit this way.
    """
    try:
        return command(*args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def _dispatch(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, args.set, args.seed)
    if args.command == "report":
        if not args.out:
            raise ConfigError("report needs --out pointing at a run directory")
        return cmd_report(cfg, args.out)
    run_dir = run_directory(args.out, args.command, cfg)
    write_config_echo(run_dir, cfg, args.command)
    return HANDLERS[args.command](cfg, run_dir)


def main(argv: list[str] | None = None) -> int:
    return run_reporting_errors(_dispatch, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
