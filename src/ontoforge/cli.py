"""The ontoforge command line driver.

Commands load a namespace from a source tree of .ont files and either emit a
serialization, run the embedded tests, classify, or manage label/identifier
side files. Exit codes: 0 success, 1 failing tests or an incoherent ontology
under `test`, 2 syntax or semantic errors (a .ont, read-external, label or
memo file that is not valid UTF-8 is a syntax error, located at its first bad
byte), 3 I/O errors.

The module imports no library module itself; each library name loads its
module on first use (`_LIBRARY`). So `--help` loads none, every command that
reads a tree loads the evaluator and the modules it imports (errors,
importer, model, patterns, sexpr), and beyond those `check` loads nothing,
`compile` the serializer, `classify` the reasoner and serializer, and `test`
the reasoner, serializer and testkit.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from . import _lazy_getattr

if TYPE_CHECKING:
    from .errors import Diagnostic
    from .evaluator import Environment

# module -> the names the handlers take from it, as `_cli.<name>`: an
# attribute of this module, which `__getattr__` resolves on first use. So a
# command loads only the modules it runs, and a wrapper or patch set on this
# module (as bench/spans.py and the tests set) is what the handlers call.
_LIBRARY = {
    "errors": ("Diagnostic", "OntoforgeError"),
    "evaluator": ("Loader", "_read_source", "resolve"),
    "importer": ("MemoTable", "memorise_check", "memorise_save"),
    "model": ("AnnotationAssertion", "RDFS_COMMENT", "RDFS_LABEL"),
    "polyglot": ("apply_labels", "emit_skeleton", "parse_properties"),
    "reasoner": ("classify", "direct_superclasses"),
    "serializer": ("CurieTable", "prefix_map", "render_functional", "render_omn"),
    "testkit": ("run_tests", "tap_lines"),
}
__getattr__ = _lazy_getattr(globals(), _LIBRARY)
_cli = sys.modules[__name__]

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
    _print_diagnostic(_cli.Diagnostic("warning", message))


def _namespaces(src: Path) -> list[str]:
    found = []
    for path in sorted(src.rglob("*.ont")):
        parts = path.relative_to(src).parts[:-1] + (path.stem,)
        found.append(".".join(parts))
    return found


def _pick_namespace(args) -> str:
    if args.ns:
        return args.ns
    src = Path(args.src)
    names = _namespaces(src)
    if len(names) == 1:
        return names[0]
    if not names:
        raise _cli.OntoforgeError(f"no .ont files under {src}")
    raise _cli.OntoforgeError(
        f"{len(names)} namespaces under {src}; pick one with --ns ({', '.join(names)})"
    )


def _load(args) -> Environment:
    return _cli.Loader(args.src).load(_pick_namespace(args))


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
    curies = _cli.CurieTable(_cli.prefix_map(env.ontology))
    for fmt in formats:
        render = _cli.render_omn if fmt == "omn" else _cli.render_functional
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
    report = _cli.run_tests(env)
    _print_skipped(report.skipped)
    for line in _cli.tap_lines(env, report):
        print(line)
    curies = _cli.CurieTable(_cli.prefix_map(env.ontology))
    for iri_text in report.unsatisfiable:
        name = curies[iri_text]
        _print_diagnostic(_cli.Diagnostic("warning", f"unsatisfiable class {name}"))
    print(
        f"# {report.tests} tests, {report.assertions} assertions, "
        f"{len(report.failures)} failures"
    )
    return 1 if report.failures or report.unsatisfiable else 0


def _cmd_classify(args) -> int:
    env = _load(args)
    _print_warnings(env)
    taxonomy = _cli.classify(env.axiom_closure())
    _print_skipped(taxonomy.skipped)
    curies = _cli.CurieTable(_cli.prefix_map(env.ontology))
    lines = []
    for key in env.ontology.entities:
        if key not in taxonomy.classes:  # a property, or owl:Thing or owl:Nothing
            continue
        if key in taxonomy.unsatisfiable:
            supers = ["owl:Nothing"]
        else:
            supers = [curies[s] for s in _cli.direct_superclasses(taxonomy, key)]
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
    path.write_text(_cli.emit_skeleton(env, args.lang), encoding="utf-8")
    print(path)
    return 0


def _cmd_labels_apply(args) -> int:
    env = _load(args)
    path = Path(args.file) if args.file else _labels_default_path(env, args.lang)
    table = _cli.parse_properties(_cli._read_source(path), str(path))
    report = _cli.apply_labels(env, table, args.lang)
    _print_warnings(env)
    for key in report.unknown:
        _print_diagnostic(_cli.Diagnostic("warning", f"unknown class name '{key}' in {path}"))
    print(f"added {report.added}, missing {len(report.missing)}, unknown {len(report.unknown)}")
    return 0


def _sole_interned_source(env: Environment) -> str:
    sources = sorted(env.interned)
    if len(sources) == 1:
        return sources[0]
    if not sources:
        raise _cli.OntoforgeError(f"namespace {env.namespace} interns no external ontology")
    raise _cli.OntoforgeError(
        f"namespace {env.namespace} interns {len(sources)} sources; " + ", ".join(sources)
    )


def _cmd_memorise_save(args) -> int:
    env = _load(args)
    _print_warnings(env)
    table = _cli.memorise_save(env, _sole_interned_source(env))
    Path(args.file).write_text(table.to_text(), encoding="utf-8")
    print(args.file)
    return 0


def _cmd_memorise_check(args) -> int:
    env = _load(args)
    saved = _cli.MemoTable.from_text(_cli._read_source(Path(args.file)), args.file)
    report = _cli.memorise_check(env, saved)
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
    entity = _cli.resolve(env, args.name)
    _print_warnings(env)
    labels = []
    comments = []
    for axiom in env.axiom_closure():
        if not isinstance(axiom, _cli.AnnotationAssertion) or axiom.subject != entity.iri:
            continue
        value = axiom.value
        if axiom.property == _cli.RDFS_LABEL:
            labels.append(value)
        elif axiom.property == _cli.RDFS_COMMENT:
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
    except _cli.OntoforgeError as err:
        _print_diagnostic(_cli.Diagnostic("error", err.message, err.location))
        return 2
    except OSError as err:
        _print_diagnostic(_cli.Diagnostic("error", str(err)))
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
