"""The ontoforge command line driver.

Commands load a namespace from a source tree of .ont files and either emit a
serialization, run the embedded tests, classify, or manage label/identifier
side files. Exit codes: 0 success, 1 failing tests or an incoherent ontology
under `test`, 2 syntax or semantic errors (a .ont, read-external, label or
memo file that is not valid UTF-8 is a syntax error, located at its first bad
byte), 3 I/O errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path

from .errors import Diagnostic, OntoforgeError
from .evaluator import Environment, Loader, _read_source, resolve
from .importer import MemoTable, memorise_check, memorise_save
from .model import AnnotationAssertion, RDFS_COMMENT, RDFS_LABEL
from .polyglot import apply_labels, emit_skeleton, parse_properties
from .reasoner import classify, direct_superclasses
from .serializer import CurieTable, prefix_map, render_functional, render_omn
from .testkit import run_tests, tap_lines

_SEVERITY_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}
_RESET = "\x1b[0m"


def _colored() -> bool:
    return os.environ.get("ONTOFORGE_COLOR", "0") == "1"


def _print_diagnostic(diag: Diagnostic) -> None:
    text = diag.render()
    if _colored():
        color = _SEVERITY_COLORS.get(diag.severity)
        if color:
            text = text.replace(f"{diag.severity}:", f"{color}{diag.severity}{_RESET}:", 1)
    print(text, file=sys.stderr)


def _print_warnings(env: Environment) -> None:
    for dep in env.all_environments():
        for diag in dep.warnings:
            _print_diagnostic(diag)


def _print_skipped(skipped) -> None:
    """One warning with the number of skipped axioms, counted by construct."""
    if not skipped:
        return
    counts = sorted(Counter(s.construct for s in skipped).items())
    by_construct = ", ".join(f"{n} {construct}" for construct, n in counts)
    noun = "axiom" if len(skipped) == 1 else "axioms"
    message = f"the classifier skipped {len(skipped)} {noun} outside its fragment: {by_construct}"
    _print_diagnostic(Diagnostic("warning", message))


def _namespaces(src: Path) -> list[str]:
    found = []
    for path in sorted(src.rglob("*.ont")):
        parts = path.relative_to(src).parts[:-1] + (path.stem,)
        found.append(".".join(parts))
    return found


def _pick_namespace(args) -> str:
    if args.ns:
        return args.ns
    names = _namespaces(Path(args.src))
    if len(names) == 1:
        return names[0]
    if not names:
        raise OntoforgeError(f"no .ont files under {args.src}")
    raise OntoforgeError(
        f"{len(names)} namespaces under {args.src}; pick one with --ns ({', '.join(names)})"
    )


def _load(args) -> Environment:
    return Loader(args.src).load(_pick_namespace(args))


def _last_segment(namespace: str) -> str:
    return namespace.rpartition(".")[2]


# --- command handlers --------------------------------------------------------


def _cmd_compile(args) -> int:
    env = _load(args)
    _print_warnings(env)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _last_segment(env.namespace)
    formats = ("omn", "ofn") if args.format == "both" else (args.format,)
    curies = CurieTable(prefix_map(env.ontology))
    for fmt in formats:
        render = render_omn if fmt == "omn" else render_functional
        text = render(env.ontology, curies)
        path = out_dir / f"{stem}.{fmt}"
        path.write_text(text, encoding="utf-8")
        print(path)
    return 0


def _cmd_check(args) -> int:
    env = _load(args)
    _print_warnings(env)
    print(f"{env.namespace}: {len(env.ontology.axioms)} axioms, {len(env.tests)} tests")
    return 0


def _cmd_test(args) -> int:
    env = _load(args)
    _print_warnings(env)
    report = run_tests(env)
    _print_skipped(report.skipped)
    for line in tap_lines(env, report):
        print(line)
    curies = CurieTable(prefix_map(env.ontology))
    for iri_text in report.unsatisfiable:
        name = curies[iri_text]
        _print_diagnostic(Diagnostic("warning", f"unsatisfiable class {name}"))
    print(
        f"# {report.tests} tests, {report.assertions} assertions, "
        f"{len(report.failures)} failures"
    )
    return 1 if report.failures or report.unsatisfiable else 0


def _cmd_classify(args) -> int:
    env = _load(args)
    _print_warnings(env)
    taxonomy = classify(env.axiom_closure())
    _print_skipped(taxonomy.skipped)
    curies = CurieTable(prefix_map(env.ontology))
    lines = []
    for key in env.ontology.entities:
        if key not in taxonomy.classes:  # a property, or owl:Thing or owl:Nothing
            continue
        if key in taxonomy.unsatisfiable:
            supers = ["owl:Nothing"]
        else:
            supers = [curies[s] for s in direct_superclasses(taxonomy, key)]
            supers = supers or ["owl:Thing"]
        lines.append(f"{curies[key]}\t{', '.join(supers)}")
    for line in sorted(lines):
        print(line)
    return 0


def _labels_default_path(env: Environment, lang: str) -> Path:
    directory = env.source_dir or Path(".")
    return directory / f"{_last_segment(env.namespace)}label_{lang}.properties"


def _cmd_labels_skeleton(args) -> int:
    env = _load(args)
    _print_warnings(env)
    path = Path(args.out) if args.out else _labels_default_path(env, args.lang)
    path.write_text(emit_skeleton(env, args.lang), encoding="utf-8")
    print(path)
    return 0


def _cmd_labels_apply(args) -> int:
    env = _load(args)
    path = Path(args.file) if args.file else _labels_default_path(env, args.lang)
    table = parse_properties(_read_source(path), str(path))
    report = apply_labels(env, table, args.lang)
    _print_warnings(env)
    for key in report.unknown:
        _print_diagnostic(Diagnostic("warning", f"unknown class name '{key}' in {path}"))
    print(f"added {report.added}, missing {len(report.missing)}, unknown {len(report.unknown)}")
    return 0


def _sole_interned_source(env: Environment) -> str:
    sources = sorted(env.interned)
    if len(sources) == 1:
        return sources[0]
    if not sources:
        raise OntoforgeError(f"namespace {env.namespace} interns no external ontology")
    raise OntoforgeError(
        f"namespace {env.namespace} interns {len(sources)} sources; " + ", ".join(sources)
    )


def _cmd_memorise_save(args) -> int:
    env = _load(args)
    _print_warnings(env)
    table = memorise_save(env, _sole_interned_source(env))
    Path(args.file).write_text(table.to_text(), encoding="utf-8")
    print(args.file)
    return 0


def _cmd_memorise_check(args) -> int:
    env = _load(args)
    saved = MemoTable.from_text(_read_source(Path(args.file)), args.file)
    report = memorise_check(env, saved)
    _print_warnings(env)
    for old, new, iri in report.deprecated:
        print(f"deprecated: {old} -> {new} (<{iri}>)")
    for iri in report.vanished:
        print(f"vanished: <{iri}>")
    if report.stable:
        print("stable")
    return 0


def _cmd_doc(args) -> int:
    env = _load(args)
    entity = resolve(env, args.name)
    _print_warnings(env)
    labels = []
    comments = []
    for axiom in env.axiom_closure():
        if not isinstance(axiom, AnnotationAssertion) or axiom.subject != entity.iri:
            continue
        value = axiom.value
        if axiom.property == RDFS_LABEL:
            labels.append(value)
        elif axiom.property == RDFS_COMMENT:
            comments.append(value)
    print(f"{args.name} <{entity.iri}>")
    for value in sorted(labels, key=lambda v: (v.lang or "", v.text)):
        print(f"label: {value.text}" + (f" @{value.lang}" if value.lang else ""))
    for value in sorted(comments, key=lambda v: (v.lang or "", v.text)):
        print(f"comment: {value.text}" + (f" @{value.lang}" if value.lang else ""))
    return 0


# --- argument parsing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--src", default=".", help="source tree of .ont files")
    parser.add_argument("--ns", help="namespace to load (default: the sole one)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoforge", description="Build, test, and serialize OWL ontologies from .ont sources."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("compile", help="emit Manchester and functional serializations")
    _add_common(p)
    p.add_argument("--format", choices=["omn", "ofn", "both"], default="both")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_compile)

    p = commands.add_parser("check", help="parse and evaluate, reporting diagnostics")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = commands.add_parser("test", help="run the namespace's deftest suite")
    _add_common(p)
    p.set_defaults(handler=_cmd_test)

    p = commands.add_parser("classify", help="print each class with its direct superclasses")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = commands.add_parser("labels", help="maintain translation properties files")
    labels = p.add_subparsers(dest="subcommand", required=True)
    sk = labels.add_parser("skeleton", help="write a fill-in label file for a language")
    _add_common(sk)
    sk.add_argument("--lang", required=True)
    sk.add_argument("--out", help="output file (default: <ns>label_<lang>.properties)")
    sk.set_defaults(handler=_cmd_labels_skeleton)
    ap = labels.add_parser("apply", help="check a filled label file against the ontology")
    _add_common(ap)
    ap.add_argument("--lang", required=True)
    ap.add_argument("--file", help="label file (default: <ns>label_<lang>.properties)")
    ap.set_defaults(handler=_cmd_labels_apply)

    p = commands.add_parser("memorise", help="persist or check external identifier mappings")
    memo = p.add_subparsers(dest="subcommand", required=True)
    sv = memo.add_parser("save", help="snapshot identifier-to-IRI rows")
    _add_common(sv)
    sv.add_argument("--file", required=True)
    sv.set_defaults(handler=_cmd_memorise_save)
    ck = memo.add_parser("check", help="diff a snapshot against current names")
    _add_common(ck)
    ck.add_argument("--file", required=True)
    ck.set_defaults(handler=_cmd_memorise_check)

    p = commands.add_parser("doc", help="print an entity's label and comment")
    _add_common(p)
    p.add_argument("--name", required=True, help="identifier, possibly ns-qualified")
    p.set_defaults(handler=_cmd_doc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # The pipeline builds no reference cycles, so reference counting frees
    # all a command makes and the cyclic collector would only rescan it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except OntoforgeError as err:
        _print_diagnostic(Diagnostic("error", err.message, err.location))
        return 2
    except OSError as err:
        _print_diagnostic(Diagnostic("error", str(err)))
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
