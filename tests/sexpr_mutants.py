"""The reader's golden file: its output on seeded mutants of pizza.ont.

`mutant_texts` builds the inputs and `mutant_record` the line each one gets;
`tests/test_sexpr.py` compares them with `tests/data/sexpr_mutants.json`.
Run as a script, with no pytest needed, it prints that file. A change meant
to alter the reader's output rewrites the file, and says why:

    PYTHONPATH=src python tests/sexpr_mutants.py > tests/data/sexpr_mutants.json
"""

import hashlib
import json
import random
from pathlib import Path

import ontoforge
from ontoforge.sexpr import MAX_NESTING, BracketForm, ListForm, ParseError, read_forms, strip_locations

GOLDEN = Path(__file__).parent / "data" / "sexpr_mutants.json"
PIZZA = (Path(ontoforge.__file__).parent / "bundled" / "pizza.ont").read_text(encoding="utf-8")

# Characters a byte flip writes: every delimiter, the escape letters, blanks
# that are and are not line or token breaks, and a non-ASCII letter.
_FLIP_CHARS = '()[]";\\: \t\n\rantqx1-?\u00e9\f'


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(7)
        if op == 0:  # byte flip
            text = text[:pos] + rng.choice(_FLIP_CHARS) + text[pos + 1:]
        elif op == 1:
            text = text[:pos] + rng.choice("()[]") + text[pos:]
        elif op == 2:
            text = text[:pos] + '"' + text[pos:]
        elif op == 3:
            text = text[:pos] + "\\" + text[pos:]
        elif op == 4:
            text = text[:pos]
        elif op == 5:  # delete a character
            text = text[:pos] + text[pos + 1:]
        else:  # duplicate a short span
            span = text[pos:pos + rng.randint(1, 12)]
            text = text[:pos] + span + text[pos:]
    return text


def mutant_texts() -> list[str]:
    """Seeded inputs: 2400 pizza.ont mutants, 1200 short random texts, 60 deep nests."""
    texts = [PIZZA]
    for seed in range(2400):
        texts.append(_mutate(PIZZA, random.Random(seed)))
    for seed in range(1200):
        rng = random.Random(100_000 + seed)
        texts.append("".join(rng.choice(_FLIP_CHARS + "ab") for _ in range(rng.randrange(25))))
    for seed in range(60):
        rng = random.Random(200_000 + seed)
        depth = MAX_NESTING - 3 + rng.randrange(6)
        opens = "".join(rng.choice("([") for _ in range(depth))
        closes = "".join(")" if c == "(" else "]" for c in reversed(opens))
        texts.append(_mutate(opens + "x" + closes, rng))
    return texts


def _located_shape(form):
    loc = (form.location.line, form.location.column)
    if isinstance(form, (ListForm, BracketForm)):
        return (type(form).__name__, loc, tuple(_located_shape(c) for c in form.children))
    return (strip_locations(form), loc)


def mutant_record(text: str) -> list:
    """[input digest, "ok", form count, digest of every form's shape and line:col]
    or [input digest, "error", message, line, column]."""
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    try:
        forms = read_forms(text, "m.ont")
    except ParseError as err:
        assert err.location.file == "m.ont"
        return [key, "error", err.message, err.location.line, err.location.column]
    shape = repr(tuple(_located_shape(f) for f in forms))
    return [key, "ok", len(forms), hashlib.sha256(shape.encode("utf-8")).hexdigest()[:16]]


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(mutant_record(text)) for text in mutant_texts()) + "\n]")
