"""Mutation fuzzing of the command line: hostile input never ends in a traceback.

Each mutant is a seeded edit of a valid input: the bundled pizza source, a
random ontology rendered to functional syntax and pulled in by
`read-external`, a label file, a memo file, or the command line itself.
Every command that reads the mutant runs in-process (`doc` and `labels
skeleton` on the pizza mutants, `memorise save` on the functional ones,
besides the four build commands) and must return a documented exit code (1
only from `test`) with nothing on stderr but rendered diagnostics, or, for a
command line argparse refuses, its usage and one error line.
"""

import random
import re

from ontoforge import cli
from ontoforge.cli import main
from ontoforge.serializer import render_functional
from support import BUNDLED, random_full_ontology

COMMANDS = ("check", "classify", "test", "compile")

# Seeds per input family; each seed is one mutant.
PIZZA_MUTANTS = 150
FUNCTIONAL_MUTANTS = 100
SIDE_FILE_MUTANTS = 100
ARGV_MUTANTS = 200

# What `Diagnostic.render` writes: an optional file:line:col, then the severity.
DIAGNOSTIC_RE = re.compile(r"(?:.+:\d+:\d+: )?(?:error|warning): .*")

# One .ont token: a bracket, a string, an atom or a run of blanks.
ONT_TOKEN_RE = re.compile(r'[()\[\]]|"(?:[^"\\]|\\.)*"?|[^\s()\[\]"]+|\s+')

PIZZA = (BUNDLED / "pizza.ont").read_bytes()
LABELS = (BUNDLED / "pizzalabel_it.properties").read_bytes()
BAD_UTF8 = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\x80\x80")


def run_main(capsys, argv, what):
    """main's exit code, after checking that every stderr line is a diagnostic."""
    try:
        code = main(argv)
    except Exception as err:
        raise AssertionError(f"{what}: {type(err).__name__} escaped main") from err
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), what
    assert code != 1 or argv[0] == "test", what
    for line in err.splitlines():
        assert DIAGNOSTIC_RE.fullmatch(line), f"{what}: {line!r}"
    return code


def nesting(rng):
    depth = rng.choice([60, 101, 150, 1000, 5000])
    opened = rng.choice(["(", "[", "(owland A ", "ObjectIntersectionOf("])
    closed = "" if rng.random() < 0.5 else ")" * depth
    return (opened * depth + closed).encode()


def mutate_tokens(data: bytes, rng: random.Random) -> bytes:
    """Edit a .ont text token by token, or as bytes for truncation and bad UTF-8."""
    tokens = ONT_TOKEN_RE.findall(data.decode("utf-8"))
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        kind = rng.choice(["duplicate", "delete", "swap", "bracket", "quote", "nest"])
        if kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "delete":
            del tokens[i]
        elif kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "bracket":
            tokens.insert(i, rng.choice("()[]"))
        elif kind == "quote":
            tokens.insert(i, '"')
        else:
            tokens.insert(i, nesting(rng).decode())
    out = "".join(tokens).encode("utf-8")
    roll = rng.random()
    if roll < 0.15:
        out = out[: rng.randrange(len(out) + 1)]
    elif roll < 0.3:
        at = rng.randrange(len(out) + 1)
        out = out[:at] + rng.choice(BAD_UTF8) + out[at:]
    return out


def mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """Flip, delete, duplicate or insert bytes, truncate, or nest deeply."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        kind = rng.choice(["flip", "delete", "duplicate", "insert", "truncate", "nest"])
        if kind == "flip" and at < len(out):
            out[at] ^= 1 << rng.randrange(8)
        elif kind == "delete":
            del out[at : at + rng.randint(1, 8)]
        elif kind == "duplicate":
            out[at:at] = out[at : at + rng.randint(1, 40)]
        elif kind == "insert":
            out[at:at] = rng.choice([b"(", b")", b'"', b"<", b">", b":", b"=", b"#", b"\n",
                                     b"\\", b"@", *BAD_UTF8])
        elif kind == "truncate":
            del out[at:]
        else:
            out[at:at] = nesting(rng)
    return bytes(out)


def test_pizza_mutants_end_in_diagnostics(tmp_path, capsys):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    codes = set()
    for seed in range(PIZZA_MUTANTS):
        (src / "pizza.ont").write_bytes(mutate_tokens(PIZZA, random.Random(seed)))
        for command in COMMANDS:
            argv = [command, "--src", str(src), *(["--out", str(out)] * (command == "compile"))]
            codes.add(run_main(capsys, argv, f"pizza mutant {seed}, {command}"))
        doc = ["doc", "--src", str(src), "--name", "Pizza"]
        codes.add(run_main(capsys, doc, f"pizza mutant {seed}, doc"))
        skeleton = ["labels", "skeleton", "--src", str(src), "--lang", "it",
                    "--out", str(tmp_path / "skeleton.properties")]
        codes.add(run_main(capsys, skeleton, f"pizza mutant {seed}, labels skeleton"))
    assert {0, 2} <= codes


def test_read_external_mutants_end_in_diagnostics(tmp_path, capsys):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "host.ont").write_text(
        '(defontology host :iri "https://example.org/host#")\n'
        '(read-external "ext.ofn")\n'
        "(deftest T (is (coherent?)))\n",
        encoding="utf-8",
    )
    codes = set()
    for seed in range(FUNCTIONAL_MUTANTS):
        rng = random.Random(seed)
        text = render_functional(random_full_ontology(rng)).encode("utf-8")
        (src / "ext.ofn").write_bytes(mutate_bytes(text, rng) if seed % 10 else text)
        for command in COMMANDS:
            argv = [command, "--src", str(src), *(["--out", str(out)] * (command == "compile"))]
            codes.add(run_main(capsys, argv, f"functional mutant {seed}, {command}"))
        save = ["memorise", "save", "--src", str(src), "--file", str(tmp_path / "names.memo")]
        codes.add(run_main(capsys, save, f"functional mutant {seed}, memorise save"))
    assert {0, 2} <= codes


def test_label_and_memo_file_mutants_end_in_diagnostics(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "pizza.ont").write_bytes(PIZZA)
    (src / "ext.ofn").write_text(
        "Prefix(e:=<https://example.org/ext#>)\n"
        "Ontology(<https://example.org/ext>\n"
        "Declaration(Class(e:Part))\n"
        "Declaration(Class(e:Whole))\n"
        "Declaration(ObjectProperty(e:hasPart))\n"
        ")\n",
        encoding="utf-8",
    )
    (src / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n(read-external "ext.ofn")\n',
        encoding="utf-8",
    )
    labels, memo = tmp_path / "it.properties", tmp_path / "names.memo"
    save = ["memorise", "save", "--src", str(src), "--ns", "menu", "--file", str(memo)]
    assert run_main(capsys, save, "memorise save") == 0
    saved = memo.read_bytes()
    codes = set()
    for seed in range(SIDE_FILE_MUTANTS):
        rng = random.Random(seed)
        labels.write_bytes(mutate_bytes(LABELS, rng))
        apply = ["labels", "apply", "--src", str(src), "--ns", "pizza", "--lang", "it",
                 "--file", str(labels)]
        codes.add(run_main(capsys, apply, f"label mutant {seed}"))
        memo.write_bytes(mutate_bytes(saved, rng))
        check = ["memorise", "check", "--src", str(src), "--ns", "menu", "--file", str(memo)]
        codes.add(run_main(capsys, check, f"memo mutant {seed}"))
    assert {0, 2} <= codes


# How a mutant edits a command line's options, each a flag with its value.
ARGV_EDITS = ("shuffle", "scramble", "drop", "repeat", "no-value", "unknown", "ns", "out")
UNKNOWN_OPTIONS = (["--bogus"], ["--bogus", "x"], ["-q"], ["--src=", "x"], ["--lang"], ["-"])
BAD_NAMESPACES = ("", "no.such", "pizza.", ".pizza", "a b", "../pizza", "pizza/x", "pizza.ont")
# What argparse writes to stderr last when it refuses a command line.
USAGE_ERROR_RE = re.compile(r"ontoforge(?: [a-z]+)*: error: .+")


def argv_mutant(rng: random.Random, command: list[str], options: list[list[str]], existing: str):
    """Edit a valid command line: its options moved, lost, repeated or made invalid."""
    options = [list(option) for option in options]
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(ARGV_EDITS)
        at = rng.randrange(len(options) + 1)
        if edit == "shuffle":
            rng.shuffle(options)
        elif edit == "scramble":  # every token, the command words too
            tokens = command + [t for option in options for t in option]
            rng.shuffle(tokens)
            command, options = [], [[t] for t in tokens]
        elif edit == "drop" and options:
            del options[at - 1]
        elif edit == "repeat" and options:
            options.insert(at, options[at - 1])
        elif edit == "no-value" and options:
            options[at - 1] = options[at - 1][:1]
        elif edit == "unknown":
            options.insert(at, rng.choice(UNKNOWN_OPTIONS))
        elif edit == "ns":
            options.insert(at, ["--ns", rng.choice(BAD_NAMESPACES)])
        elif edit == "out":  # last, so that it wins over the valid one
            flag = "--file" if any(option[0] == "--file" for option in options) else "--out"
            options.append([flag, existing])
    if rng.random() < 0.1 and command:
        del command[rng.randrange(len(command))]
    return command + [t for option in options for t in option]


def run_argv(capsys, argv, what):
    """main's exit code, stdout and stderr, after the same checks as `run_main`."""
    try:
        code = main(argv)
    except Exception as err:
        raise AssertionError(f"{what}: {type(err).__name__} escaped main") from err
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), what
    assert code != 1 or argv[0] == "test", what
    lines = err.splitlines()
    if err.startswith("usage: "):
        assert code == 2 and USAGE_ERROR_RE.fullmatch(lines[-1]), f"{what}: {err!r}"
    else:
        for line in lines:
            assert DIAGNOSTIC_RE.fullmatch(line), f"{what}: {line!r}"
    return code, out, err


def test_argv_mutants_end_in_diagnostics_and_parse_as_with_every_command(
    tmp_path, capsys, monkeypatch
):
    """Each mutant also reads the same through the parser of every command."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "pizza.ont").write_bytes(PIZZA)
    (src / "pizzalabel_it.properties").write_bytes(LABELS)
    (src / "ext.ofn").write_text(
        "Prefix(e:=<https://example.org/ext#>)\n"
        "Ontology(<https://example.org/ext>\nDeclaration(Class(e:Part)))\n",
        encoding="utf-8",
    )
    (src / "menu.ont").write_text(
        '(defontology menu :iri "https://example.org/menu#")\n(read-external "ext.ofn")\n',
        encoding="utf-8",
    )
    existing = tmp_path / "existing.txt"
    memo = str(tmp_path / "names.memo")
    pizza = [["--src", str(src)], ["--ns", "pizza"]]
    menu = [["--src", str(src)], ["--ns", "menu"]]
    valid = [
        (["check"], pizza),
        (["classify"], pizza),
        (["test"], pizza),
        (["compile"], [*pizza, ["--out", str(out)], ["--format", "ofn"]]),
        (["doc"], [*pizza, ["--name", "Pizza"]]),
        (["labels", "skeleton"], [*pizza, ["--lang", "it"], ["--out", str(tmp_path / "sk")]]),
        (["labels", "apply"], [*pizza, ["--lang", "IT"]]),
        (["memorise", "save"], [*menu, ["--file", memo]]),
        (["memorise", "check"], [*menu, ["--file", memo]]),
    ]
    # a relative path (a dropped --src or --out) stays inside the scratch tree
    monkeypatch.chdir(tmp_path)
    every_command = cli._build_parser
    codes = set()
    for seed in range(ARGV_MUTANTS):
        rng = random.Random(seed)
        command, options = valid[seed % len(valid)]
        existing.write_text("not a directory\n", encoding="utf-8")
        argv = argv_mutant(rng, list(command), options, str(existing))
        what = f"argv mutant {seed}: {argv}"
        result = run_argv(capsys, argv, what)
        codes.add(result[0])
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", lambda command=None: every_command())
            assert run_argv(capsys, argv, what) == result, what
    assert {0, 2, 3} <= codes
