"""Evaluation of top-level forms into an Environment with one Ontology.

The rules are few and strict: the first form of a namespace must be
`defontology` and there can be only one; every identifier must be defined
before it is referenced; entity IRIs are the ontology IRI plus the identifier,
verbatim. Definitions bind identifiers in the environment, so later forms,
tests, and the CLI can resolve them by name.

The language is one table of forms, `TOP_FORMS`, with class expressions in
a second lookup over the same rows (`sexpr.Row`), `CLASS_EXPRESSIONS`. A row
gives a head its handler, its operand kinds, the error a bad shape raises
and its options. `eval_top` and `eval_ce` look the head up, check the
operands against the row and call the handler, which checks only values.

Every entity kind takes one definition path: `define` (for `defclass` and
`defoproperty`), `owlclass` and the pattern forms create entities through
`declare`, which refuses a name, affixed or not, that is no identifier, and
read their row's options through `options`, which takes the values of
`TEXT_OPTIONS` as one text and those of `KEYWORD_OPTIONS` as keywords.
References go through `resolve_ref`, which checks the kind. Every axiom a
form states, other than a declaration, enters the ontology through
`add_axioms`. Every name rule matches the whole name. `deftest` checks each
body form against `IS` when it reads it, so `check` refuses what `test` would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from . import patterns
from .errors import Diagnostic, Located, Location, OntoforgeError, Source
from .importer import DeprecatedAlias, InternRecord, intern_external, parse_functional
from .model import (
    AnnotationAssertion,
    AnnotationValue,
    Arrival,
    Axiom,
    BUILTIN_PREFIXES,
    ClassExpression,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    IRI,
    Kind,
    Named,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Ontology,
    Or,
    And,
    RDFS_COMMENT,
    RDFS_LABEL,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    TransitiveObjectProperty,
)
from .sexpr import (
    Form,
    Identifier,
    Keyword,
    ListForm,
    ParseError,
    Row,
    Text,
    head_name,
    is_valid_identifier,
    is_valid_namespace,
    read_forms,
)


class EvalError(OntoforgeError):
    pass


class UnboundIdentifier(EvalError):
    pass


class DuplicateOntology(EvalError):
    pass


class DuplicateBinding(EvalError):
    pass


class UnknownOption(EvalError):
    pass


class NamespaceNotFound(OntoforgeError):
    pass


class CycleError(OntoforgeError):
    pass


class TestSyntax(OntoforgeError):
    pass


@dataclass(frozen=True)
class TestDef(Located):
    name: str
    body: tuple[Form, ...]
    offset: int
    source: Source


class Environment:
    """Everything one namespace evaluation produces."""

    def __init__(self, namespace: str | None = None):
        self.namespace = namespace
        self.ontology: Ontology | None = None
        self.bindings: dict[str, Entity] = {}
        self.deprecated: dict[str, DeprecatedAlias] = {}
        self.templates: dict[str, patterns.TemplateDef] = {}
        self.tests: list[TestDef] = []
        self.warnings: list[Diagnostic] = []
        self.interned: dict[str, InternRecord] = {}
        self.uses: list["Environment"] = []
        self.source_file = "<string>"
        self.source_dir: Path | None = None

    def all_environments(self) -> list["Environment"]:
        """This environment and its dependencies, dependencies first.

        An iterative depth-first walk: a recursive closure would hold itself
        in a cell and make every environment of the run cyclic garbage.
        """
        seen = {id(self)}
        out: list[Environment] = []
        stack = [(self, iter(self.uses))]
        while stack:
            env, deps = stack[-1]
            for dep in deps:
                if id(dep) not in seen:
                    seen.add(id(dep))
                    stack.append((dep, iter(dep.uses)))
                    break
            else:
                stack.pop()
                out.append(env)
        return out

    def axiom_closure(self) -> list[Axiom]:
        """Own axioms plus those of transitively used namespaces."""
        out: list[Axiom] = []
        for env in self.all_environments():
            out.extend(env.ontology.axioms)
        return out


def resolve(env: Environment, name: str, where: Located | None = None) -> Entity:
    """Look up a binding; deprecated aliases still work but warn.

    A warning or error is located at where, which is resolved only then.
    """
    entity = env.bindings.get(name)
    if entity is not None:
        return entity
    location = where.location if where is not None else None
    alias = env.deprecated.get(name)
    if alias is not None:
        env.warnings.append(
            Diagnostic(
                "warning",
                f"label has changed: '{name}' is deprecated, use '{alias.current}'",
                location,
            )
        )
        return alias.entity
    raise UnboundIdentifier(f"unbound identifier '{name}'", location)


# Read once: an Enum member read from its class is a lookup in Python on 3.11.
_CLASS, _OBJECT_PROPERTY = Kind.CLASS, Kind.OBJECT_PROPERTY

_CLASS_OPTIONS = frozenset({"label", "comment", "annotation", "subclass", "equivalent", "disjoint"})
_PROPERTY_OPTIONS = frozenset(
    {"label", "comment", "annotation", "domain", "range", "subproperty", "characteristic"}
)

# Options that take exactly one text, and options whose values are keywords, so
# a keyword after one that names no option of the form is one of its values.
TEXT_OPTIONS = frozenset({"label", "comment", "iri", "prefix"})
KEYWORD_OPTIONS = frozenset({"characteristic", "naming"})

# An :annotation value, (label "text" "lang") or (comment "text").
_ANNOTATION = Row(None, "text text?", EvalError,
                  'annotation values look like (label "text" "lang")')
_ANNOTATION_PROPERTIES = {"label": RDFS_LABEL, "comment": RDFS_COMMENT}
_DEFINES = {"defclass": _CLASS, "defoproperty": _OBJECT_PROPERTY}
_CHARACTERISTICS = {"functional": FunctionalObjectProperty, "transitive": TransitiveObjectProperty}

_PREFIX_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.-]*")

# A test body's form, (is assertion).
IS = Row(None, "assertion", TestSyntax, "test bodies are (is assertion) forms")


def assertion_name(form: Form) -> str:
    """The head of form, an assertion or a test body's `(is ...)`."""
    name = head_name(form)
    if name is None:
        raise TestSyntax("expected an assertion form", form.location)
    return name


@dataclass
class _AffixScope:
    where: str
    text: str
    aliases: dict[str, Entity] = field(default_factory=dict)


class Evaluator:
    """Walks top-level forms, mutating one Environment."""

    def __init__(self, env: Environment, loader: "Loader | None" = None):
        self.env = env
        self.loader = loader
        self._affixes: list[_AffixScope] = []
        # Transient name -> entity scope, used by probe blocks in tests.
        self.locals: dict[str, Entity] = {}
        # How many template uses enclose the form being evaluated.
        self.template_depth = 0
        # How many template bodies this evaluator has instantiated.
        self.template_instantiations = 0

    # --- shared plumbing ---

    def _located(self, err: OntoforgeError, location: Location) -> OntoforgeError:
        if err.location is None:
            err.location = location
        return err

    def add_axioms(self, axioms, form: Located) -> None:
        """Add the axioms form states; every stated axiom comes in here. None is
        refused: each entity they mention was admitted with its kind when it was
        declared or bound (a probe's and an affix block's names too), or is built in."""
        self.env.ontology.add_axioms(axioms)

    def push_affix(self, where: str, text: str) -> None:
        self._affixes.append(_AffixScope(where, text))

    def pop_affix(self) -> None:
        self._affixes.pop()

    def _affixed(self, name: str) -> str:
        for scope in reversed(self._affixes):
            name = name + scope.text if scope.where == "suffix" else scope.text + name
        return name

    def resolve_ref(self, form: Form, kind: Kind) -> Entity:
        """The entity form names, which must be of the given kind."""
        if not isinstance(form, Identifier):
            raise EvalError("expected an identifier", form.location)
        name = form.name
        for scope in reversed(self._affixes) if self._affixes else ():
            entity = scope.aliases.get(name)
            if entity is not None:
                break
        else:
            entity = (self.locals.get(name) or self.env.bindings.get(name)
                      or resolve(self.env, name, form))
        if entity.kind is not kind:
            what = "a class" if kind is _CLASS else "an object property"
            raise EvalError(f"'{form.name}' is not {what}", form.location)
        return entity

    def declare(self, name: str, where: Located, kind: Kind, bind: bool = True) -> Entity:
        """Declare name as an entity of the given kind; errors are located at where.

        With bind, the name takes the enclosing affixes and is bound in the
        environment; without, it is declared verbatim and left unbound. The
        affixed name must itself be an identifier. A name already bound to
        another entity is refused, never rebound.
        """
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", where.location)
        full = self._affixed(name) if bind and self._affixes else name
        if full != name and not is_valid_identifier(full):
            raise EvalError(f"affixed name '{full}' is not an identifier", where.location)
        if full != name and full in self.env.bindings:
            raise DuplicateBinding(f"affixed name '{full}' is already bound", where.location)
        try:
            entity = self.env.ontology.declare(kind, IRI(self.env.ontology.iri + full))
        except OntoforgeError as err:
            raise self._located(err, where.location)
        if bind:
            bound = self.env.bindings.get(full)
            if bound is not None and bound != entity:
                message = f"'{full}' is already bound to <{bound.iri}>"
                raise DuplicateBinding(message, where.location)
            self.env.bindings[full] = entity
            if full != name:
                self._affixes[-1].aliases[name] = entity
        return entity

    # --- dispatch: one lookup in a table of forms, the row's check, its handler ---

    def run(self, forms) -> Environment:
        for form in forms:
            self.eval_top(form)
        if self.env.ontology is None:
            raise EvalError(
                "namespace defines no ontology; the first form must be (defontology ...)",
                Location(self.env.source_file, 1, 1),
            )
        return self.env

    def eval_top(self, form: Form):
        if not isinstance(form, ListForm):
            raise EvalError("top-level form must be a list", form.location)
        head = form.children[0] if form.children else None
        if not isinstance(head, Identifier):
            raise EvalError("form needs an identifier head", form.location)
        name = head.name
        if self.env.ontology is None and name != "defontology":
            raise EvalError("the first form must be (defontology ...)", head.location)
        if name == "defontology" and self.env.ontology is not None:
            raise DuplicateOntology("namespace already defines an ontology", form.location)
        row = TOP_FORMS.get(name) or self.env.templates.get(name)
        if row is None:
            raise UnboundIdentifier(f"unbound identifier '{name}'", head.location)
        return row.handler(self, row, form, row.check(form, form.children[1:]))

    def eval_ce(self, form: Form) -> ClassExpression:
        if isinstance(form, Identifier):
            return Named(self.resolve_ref(form, _CLASS))
        head = form.children[0] if isinstance(form, ListForm) and form.children else None
        if not isinstance(head, Identifier):
            raise EvalError("expected a class expression", form.location)
        row = CLASS_EXPRESSIONS.get(head.name)
        if row is None:
            raise UnboundIdentifier(f"unbound identifier '{head.name}'", head.location)
        return row.handler(self, row, form, row.check(form, form.children[1:]))

    # --- options ---

    def options(self, forms, known: frozenset):
        """Each option in forms, one of known, as (keyword, values). Every keyword
        is read first; each option's values are checked as it is given out, so
        an option's values are evaluated before a later option's are checked."""
        groups: list[tuple[Keyword, list[Form]]] = []
        for form in forms:
            if isinstance(form, Keyword) and form.name in known:
                groups.append((form, []))
            elif isinstance(form, Keyword) and not (
                groups and groups[-1][0].name in KEYWORD_OPTIONS
            ):
                raise UnknownOption(f"unknown option ':{form.name}'", form.location)
            elif not groups:
                raise EvalError("expected an option keyword", form.location)
            else:
                groups[-1][1].append(form)
        for kw, values in groups:
            if not values:
                raise EvalError(f"option ':{kw.name}' needs at least one value", kw.location)
            if kw.name in TEXT_OPTIONS and (len(values) != 1 or not isinstance(values[0], Text)):
                raise EvalError(f"option ':{kw.name}' needs exactly one text value", kw.location)
            yield kw, values

    def _annotation_axiom(self, subject: IRI, value_form: Form) -> AnnotationAssertion:
        prop = _ANNOTATION_PROPERTIES.get(head_name(value_form))
        args = _ANNOTATION.check(value_form, value_form.children[1:] if prop else ())
        lang = args[1].value if len(args) == 2 else None
        try:
            return AnnotationAssertion(subject, prop, AnnotationValue(args[0].value, lang))
        except ValueError as err:
            raise EvalError(str(err), value_form.location)

    def option_axioms(self, entity: Entity, forms, known: frozenset) -> list[Axiom]:
        """The axioms a form's options, among known, state about entity."""
        axioms: list[Axiom] = []
        for kw, values in self.options(forms, known):
            prop = _ANNOTATION_PROPERTIES.get(kw.name)
            if prop is not None:
                value = AnnotationValue(values[0].value, "en")
                axioms.append(AnnotationAssertion(entity.iri, prop, value))
            elif kw.name == "annotation":
                axioms.extend(self._annotation_axiom(entity.iri, v) for v in values)
            elif kw.name == "subclass":
                axioms.extend(SubClassOf(Named(entity), self.eval_ce(v)) for v in values)
            elif kw.name == "equivalent":
                operands = (Named(entity), *(self.eval_ce(v) for v in values))
                axioms.append(EquivalentClasses(operands))
            elif kw.name == "disjoint":
                others = tuple(self.resolve_ref(v, _CLASS) for v in values)
                try:
                    axioms.append(DisjointClasses((entity, *others)))
                except ValueError as err:
                    raise EvalError(str(err), kw.location)
            elif kw.name == "domain":
                axioms.extend(ObjectPropertyDomain(entity, self.eval_ce(v)) for v in values)
            elif kw.name == "range":
                axioms.extend(ObjectPropertyRange(entity, self.eval_ce(v)) for v in values)
            elif kw.name == "subproperty":
                axioms.extend(
                    SubObjectPropertyOf(entity, self.resolve_ref(v, _OBJECT_PROPERTY))
                    for v in values
                )
            else:
                assert kw.name == "characteristic"
                for v in values:
                    make = _CHARACTERISTICS.get(v.name) if isinstance(v, Keyword) else None
                    if make is None:
                        message = "characteristics are :functional or :transitive"
                        raise EvalError(message, v.location)
                    axioms.append(make(entity))
        return axioms

    # --- handlers ---

    def eval_owlclass(self, row: Row, form: ListForm, args) -> Entity:
        """(owlclass "Name" options...): declare a class without binding it."""
        entity = self.declare(args[0].value, args[0], _CLASS, bind=False)
        self.add_axioms(self.option_axioms(entity, args[1:], row.options), form)
        return entity

    def define_ontology(self, row: Row, form: ListForm, args) -> Ontology:
        name = args[0].name
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", args[0].location)
        given = self.options(args[1:], row.options)
        texts = {kw.name: values[0].value for kw, values in given}
        iri_text, prefix = texts.get("iri"), texts.get("prefix")
        if iri_text is None:
            raise EvalError("defontology needs :iri", form.location)
        try:
            ontology = Ontology(IRI(iri_text))
        except ValueError as err:
            raise EvalError(str(err), form.location)
        if prefix is not None and not _PREFIX_LABEL_RE.fullmatch(prefix):
            raise EvalError(f"invalid prefix label '{prefix}'", form.location)
        if prefix in BUILTIN_PREFIXES:
            raise EvalError(f"prefix label '{prefix}' is reserved", form.location)
        ontology.add_prefix(iri_text, prefix)
        self.env.ontology = ontology
        if self.env.namespace is None:
            self.env.namespace = name
        return ontology

    def define(self, row: Row, form: ListForm, args) -> Entity:
        """(defclass Name options...) or (defoproperty Name options...)"""
        entity = self.declare(args[0].name, args[0], _DEFINES[form.children[0].name])
        if len(args) > 1:
            self.add_axioms(self.option_axioms(entity, args[1:], row.options), form)
        return entity

    def use(self, row: Row, form: ListForm, args) -> "Environment":
        ns = args[0].name
        if self.loader is None:
            raise EvalError("no source loader available for (use ...)", form.location)
        try:
            dep = self.loader.load(ns)
            for name, entity in dep.bindings.items():
                if "/" not in name:
                    self.env.bindings[f"{ns}/{name}"] = entity
                    self.env.ontology.admit(entity, Arrival.IMPORT)
        except OntoforgeError as err:
            raise self._located(err, args[0].location)
        self.env.uses.append(dep)
        self.add_axioms([Import(dep.ontology.iri)], form)
        for label, base in dep.ontology.prefixes.items():
            self.env.ontology.add_prefix(base, label)
        return dep

    def read_external(self, row: Row, form: ListForm, args) -> int:
        naming = "fragment"
        prefix: str | None = None
        for kw, values in self.options(args[1:], row.options):
            if kw.name == "prefix":
                prefix = values[0].value
            elif len(values) != 1 or not isinstance(values[0], Keyword) or (
                values[0].name not in ("fragment", "label")
            ):
                raise EvalError(":naming is :fragment or :label", kw.location)
            else:
                naming = values[0].name
        path = Path(args[0].value)
        if not path.is_absolute():
            path = (self.env.source_dir or Path.cwd()) / path
        external = parse_functional(_read_source(path), str(path))
        try:
            return intern_external(self.env, external, naming=naming, prefix=prefix)
        except OntoforgeError as err:
            raise self._located(err, args[0].location)

    def deftest(self, row: Row, form: ListForm, args) -> TestDef:
        name = args[0].name
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", args[0].location)
        if any(t.name == name for t in self.env.tests):
            raise EvalError(f"duplicate test name '{name}'", args[0].location)
        for body in args[1:]:
            IS.check(body, body.children[1:] if assertion_name(body) == "is" else ())
        test = TestDef(name, args[1:], form.offset, form.source)
        self.env.tests.append(test)
        return test


def _nary(cls, operands: list[ClassExpression]) -> ClassExpression:
    return operands[0] if len(operands) == 1 else cls(tuple(operands))


def _restriction(cls):
    """The handler of cls's form: the property is resolved before the filler."""
    return lambda ev, row, form, args: cls(
        ev.resolve_ref(args[0], _OBJECT_PROPERTY), ev.eval_ce(args[1]))


# The table of forms: each head's row gives its handler, called with the
# evaluator, the row, the form and its checked operands; the operand kinds; the
# error and message of a bad shape; and the options the form admits, which its
# handler reads from the row. A handler from `patterns` is looked up when it is
# called, so a wrapper set on its name later sees every call.
TOP_FORMS = {
    "defontology": Row(Evaluator.define_ontology, "identifier option*", EvalError,
                       "defontology needs a name", options=frozenset({"iri", "prefix"})),
    "defclass": Row(Evaluator.define, "identifier option*", EvalError, "defclass needs a name",
                    options=_CLASS_OPTIONS),
    "defoproperty": Row(Evaluator.define, "identifier option*", EvalError,
                        "defoproperty needs a name", options=_PROPERTY_OPTIONS),
    "use": Row(Evaluator.use, "identifier", EvalError, "use needs a namespace name"),
    "read-external": Row(Evaluator.read_external, "text option*", EvalError,
                         "read-external needs a file path",
                         options=frozenset({"naming", "prefix"})),
    "deftest": Row(Evaluator.deftest, "identifier (is)*", EvalError, "deftest needs a name"),
    "deftemplate": Row(lambda ev, row, form, args: patterns.define_template(ev, form, args),
                       "identifier bracket form*", patterns.TemplateError,
                       "deftemplate needs a name and a parameter bracket"),
    "as-disjoint-subclasses": Row(
        lambda ev, row, form, args: patterns.disjoint_subclasses(ev, form, args),
        "class :cover? (defclass)*", patterns.PatternArity,
        "as-disjoint-subclasses needs a parent class"),
    "with-suffix": Row(lambda ev, row, form, args: patterns.affix_block(ev, form, args, "suffix"),
                       "identifier form*", patterns.PatternArity,
                       "with-suffix needs an affix identifier"),
    "with-prefix": Row(lambda ev, row, form, args: patterns.affix_block(ev, form, args, "prefix"),
                       "identifier form*", patterns.PatternArity,
                       "with-prefix needs an affix identifier"),
    "value-partition": Row(lambda ev, row, form, args: patterns.value_partition(ev, form, args),
                           "identifier bracket", patterns.PatternArity,
                           "value-partition needs a name and a bracket of values"),
}

# The heads of class expressions, a second lookup over rows of the same kind.
CLASS_EXPRESSIONS = {
    "owland": Row(lambda ev, row, form, args: _nary(And, [ev.eval_ce(a) for a in args]),
                  "class-expression+", EvalError, "owland needs at least one operand"),
    "owlor": Row(lambda ev, row, form, args: _nary(Or, [ev.eval_ce(a) for a in args]),
                 "class-expression+", EvalError, "owlor needs at least one operand"),
    "owlnot": Row(lambda ev, row, form, args: Not(ev.eval_ce(args[0])),
                  "class-expression", EvalError, "owlnot takes exactly one operand"),
    "owlsome": Row(_restriction(Some), "property class-expression", EvalError,
                   "owlsome takes a property and a filler"),
    "owlonly": Row(_restriction(Only), "property class-expression", EvalError,
                   "owlonly takes a property and a filler"),
    "owlclass": Row(lambda ev, row, form, args: Named(ev.eval_owlclass(row, form, args)),
                    "text option*", EvalError, "owlclass needs a text name",
                    options=_CLASS_OPTIONS),
}


def eval_forms(env: Environment, forms, loader: "Loader | None" = None) -> Environment:
    """Evaluate parsed top-level forms into env."""
    return Evaluator(env, loader).run(forms)


def eval_text(
    text: str,
    namespace: str | None = None,
    file: str = "<string>",
    loader: "Loader | None" = None,
) -> Environment:
    """Read and evaluate a whole namespace given as text."""
    env = Environment(namespace)
    env.source_file = file
    return eval_forms(env, read_forms(text, file), loader)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_source(path: Path) -> str:
    """A UTF-8 source file's text, newlines translated as a text-mode read does.

    A byte sequence that is not UTF-8 is a ParseError located at its first byte.
    """
    data = path.read_bytes()
    try:
        return _universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        before = _universal_newlines(data[: err.start].decode("utf-8"))
        raise ParseError(
            f"not valid UTF-8: {err.reason} (byte 0x{data[err.start]:02x})",
            Source(str(path), before).location(len(before)),
        ) from None


class Loader:
    """Loads namespaces from .ont files under a source root, memoized."""

    def __init__(self, root):
        self.root = Path(root)
        self.cache: dict[str, Environment] = {}
        self._loading: list[str] = []

    def load(self, namespace: str) -> Environment:
        if not is_valid_namespace(namespace):
            raise EvalError(f"invalid namespace name '{namespace}'")
        cached = self.cache.get(namespace)
        if cached is not None:
            return cached
        if namespace in self._loading:
            cycle = self._loading[self._loading.index(namespace):] + [namespace]
            raise CycleError("cyclic use: " + " -> ".join(cycle))
        path = self.root.joinpath(*namespace.split(".")).with_suffix(".ont")
        if not path.is_file():
            raise NamespaceNotFound(f"no source file for namespace '{namespace}' at {path}")
        text = _read_source(path)
        env = Environment(namespace)
        env.source_file = str(path)
        env.source_dir = path.parent
        self._loading.append(namespace)
        try:
            eval_forms(env, read_forms(text, str(path)), loader=self)
        finally:
            self._loading.pop()
        self.cache[namespace] = env
        return env

