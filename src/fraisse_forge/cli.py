"""Command-line front end: build stage chains, run verification suites, and
export structures.  Reports are JSON on stdout with a human summary on stderr;
the exit code is 0 iff every check passed (skips fail unless --allow-skips)."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, serialization, suites
from .limits import CatalogParams, build_stages
from .presets import antichain, edgeless_graph, free_semilattice, simplex
from .structures import (CLASS_TAGS, GRAPH, METRIC, POSET, SEMILATTICE,
                         FiniteStructure, StructureError)

PRESET_CLASSES = {"edgeless": GRAPH, "antichain": POSET,
                  "simplex": METRIC, "freesemilattice": SEMILATTICE}


def parse_root(spec: str, class_tag: str | None) -> FiniteStructure:
    """Root from a preset (`edgeless:n`, `antichain:n`, `simplex:n:d`,
    `freesemilattice:n`) or a JSON structure document path."""
    head = spec.split(":", 1)[0]
    if head in PRESET_CLASSES:
        parts = spec.split(":")
        try:
            n = int(parts[1])
        except (IndexError, ValueError):
            raise StructureError(f"preset {spec!r} needs an integer size, "
                                 f"e.g. {head}:3")
        if n < 1:
            raise StructureError("preset size must be positive")
        if head == "edgeless":
            root = edgeless_graph(n)
        elif head == "antichain":
            root = antichain(n)
        elif head == "simplex":
            if len(parts) != 3:
                raise StructureError("simplex preset is simplex:n:d")
            d = _rational(parts[2], "simplex distance")
            if d <= 0:
                raise StructureError(f"simplex distance {parts[2]!r} is not "
                                     f"positive")
            root = simplex(n, d)
        else:
            root = free_semilattice(n)
        if class_tag and root.class_tag != class_tag:
            raise StructureError(
                f"preset {head!r} builds a {root.class_tag}, not a {class_tag}")
        return root
    path = Path(spec)
    if not path.exists():
        raise StructureError(f"{spec!r} is neither a preset nor an existing file")
    root = serialization.loads(_read(path))
    if class_tag and root.class_tag != class_tag:
        raise StructureError(f"{spec} holds a {root.class_tag}, not a {class_tag}")
    return root


def _rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise StructureError(f"{what} {text!r} is not a rational") from None


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise StructureError(f"cannot read {str(path)!r} as UTF-8 text: {e}") from None


def parse_grid(text: str | None) -> tuple[Fraction, ...]:
    if not text:
        return ()
    return tuple(_rational(part, "grid distance") for part in text.split(","))


def run_manifest(command: str, parameters: dict, inputs: dict[str, str]) -> dict:
    return {"command": command,
            "parameters": parameters,
            "input_hashes": {k: hashlib.sha256(v.encode()).hexdigest()
                             for k, v in sorted(inputs.items())},
            "version": __version__}


def _emit(report: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    sys.stderr.write(summary + "\n")


def cmd_build(args) -> int:
    root = parse_root(args.root, args.class_tag)
    params = CatalogParams(args.max_base, parse_grid(args.grid))
    chain = build_stages(root, args.stages, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for k, stage in enumerate(chain.stages):
        text = serialization.dumps(stage)
        (out / f"stage{k}.json").write_text(text)
        files[f"stage{k}.json"] = text
    manifest = run_manifest(
        "build",
        {"class": root.class_tag, "root": args.root, "stages": args.stages,
         "max_base": args.max_base, "grid": [str(g) for g in params.metric_grid]},
        files)
    manifest["outcome"] = {"stage_sizes": [len(s.carrier) for s in chain.stages]}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    _emit(manifest, "stage sizes: " +
          ", ".join(str(len(s.carrier)) for s in chain.stages))
    return 0


SUITES = ("axioms", "pushout-oracle", "homogeneity", "functoriality", "cayley")


def cmd_verify(args) -> int:
    if args.suite == "axioms":
        if args.dir:
            stage_files = sorted(Path(args.dir).glob("stage*.json"))
            if not stage_files:
                raise StructureError(f"no stage files under {args.dir!r}")
            structures = [serialization.loads(_read(p)) for p in stage_files]
        elif args.root:
            structures = [parse_root(args.root, args.class_tag)]
        else:
            raise StructureError("axioms suite needs --dir or --root")
        report = suites.suite_axioms(structures)
    elif args.suite == "pushout-oracle":
        if not args.class_tag:
            raise StructureError("pushout-oracle suite needs --class")
        grid = parse_grid(args.grid) or suites.DEFAULT_ORACLE_GRID
        report = suites.suite_pushout_oracle(args.class_tag, args.max_size, grid)
    elif args.suite == "homogeneity":
        root = parse_root(args.root, args.class_tag)
        params = CatalogParams(args.max_base, parse_grid(args.grid))
        report = suites.suite_homogeneity(root, params, max(1, args.stages))
    elif args.suite == "functoriality":
        root = parse_root(args.root, args.class_tag)
        params = CatalogParams(args.max_base, parse_grid(args.grid))
        report = suites.suite_functoriality(root, params)
    else:
        if not args.class_tag:
            raise StructureError("cayley suite needs --class")
        report = suites.suite_cayley(args.class_tag)
    ok = report["passed"] and (not report["skipped"] or args.allow_skips)
    _emit(report, f"suite {args.suite}: "
          f"{'PASS' if ok else 'FAIL'} ({report['checked']} checks, "
          f"{len(report['failures'])} failures, {len(report['skipped'])} skips)")
    return 0 if ok else 1


def cmd_export(args) -> int:
    s = parse_root(args.stage, args.class_tag)
    if args.format == "json":
        text = serialization.dumps(s)
    else:
        text = serialization.to_dot(s)
    if args.out:
        Path(args.out).write_text(text)
        sys.stderr.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraisse-forge",
        description="Exact finite stages of homogeneous limit structures")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--class", dest="class_tag", choices=CLASS_TAGS, default=None)
        p.add_argument("--grid", default=None,
                       help="comma-separated rational distances (metric only)")
        p.add_argument("--max-base", type=int, default=2,
                       help="largest substructure used as an extension base")

    b = sub.add_parser("build", help="build and persist a stage chain")
    common(b)
    b.add_argument("--root", required=True, help="preset or JSON file")
    b.add_argument("--stages", type=int, default=1)
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification suite")
    common(v)
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--root", default=None, help="preset or JSON file")
    v.add_argument("--dir", default=None, help="built stage directory (axioms)")
    v.add_argument("--stages", type=int, default=1)
    v.add_argument("--max-size", type=int, default=3,
                   help="carrier bound for oracle spans and test objects")
    v.add_argument("--allow-skips", action="store_true",
                   help="skipped checks do not fail the run")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="export a structure as json or dot")
    common(e)
    e.add_argument("--stage", required=True, help="preset or JSON file")
    e.add_argument("--format", required=True, choices=["json", "dot"])
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StructureError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
