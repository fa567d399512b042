"""Evaluation of top-level forms into an Environment with one Ontology.

The rules are few and strict: the first form of a namespace must be
`defontology` and there can be only one; every identifier must be defined
before it is referenced; entity IRIs are the ontology IRI plus the identifier,
verbatim. Definitions bind identifiers in the environment, so later forms,
tests, and the CLI can resolve them by name.

Every entity kind takes one definition path: `define` (for `defclass` and
`defoproperty`), `owlclass` and the pattern forms create entities through
`declare` and read options through `option_axioms`, whose keywords come from
one table keyed by the entity's kind, `_OPTIONS`. References go through
`resolve_ref`, which checks the kind. Every axiom a form states, other than a
declaration, enters the ontology through `add_axioms`, which locates an error
at the stating form.
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
    Text,
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


_CLASS_OPTIONS = {"label", "comment", "annotation", "subclass", "equivalent", "disjoint"}
_PROPERTY_OPTIONS = {
    "label",
    "comment",
    "annotation",
    "domain",
    "range",
    "subproperty",
    "characteristic",
}
_OPTIONS = {Kind.CLASS: _CLASS_OPTIONS, Kind.OBJECT_PROPERTY: _PROPERTY_OPTIONS}
_ONTOLOGY_OPTIONS = {"iri", "prefix"}

_PREFIX_LABEL_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$")


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
        """Add the axioms form states; every stated axiom comes in here.

        An error is located at form, whose location is resolved only then.
        """
        try:
            self.env.ontology.add_axioms(axioms)
        except OntoforgeError as err:
            raise self._located(err, form.location)

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
        for scope in reversed(self._affixes):
            entity = scope.aliases.get(form.name)
            if entity is not None:
                break
        else:
            entity = self.locals.get(form.name) or resolve(self.env, form.name, form)
        if entity.kind is not kind:
            what = "a class" if kind is Kind.CLASS else "an object property"
            raise EvalError(f"'{form.name}' is not {what}", form.location)
        return entity

    def declare(self, name: str, where: Located, kind: Kind, bind: bool = True) -> Entity:
        """Declare name as an entity of the given kind; errors are located at where.

        With bind, the name takes the enclosing affixes and is bound in the
        environment; without, it is declared verbatim and left unbound. A
        name already bound to another entity is refused, never rebound.
        """
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", where.location)
        full = self._affixed(name) if bind else name
        if full != name and full in self.env.bindings:
            raise DuplicateBinding(f"affixed name '{full}' is already bound", where.location)
        try:
            entity = self.env.ontology.declare(kind, IRI(self.env.ontology.iri + full))
        except ValueError as err:
            raise EvalError(str(err), where.location)
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

    # --- top-level dispatch ---

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
        if not form.children or not isinstance(form.children[0], Identifier):
            raise EvalError("form needs an identifier head", form.location)
        head = form.children[0]
        name = head.name
        if self.env.ontology is None and name != "defontology":
            raise EvalError("the first form must be (defontology ...)", head.location)
        if name == "defontology":
            return self._defontology(form)
        if name == "defclass":
            return self.define(form, Kind.CLASS)
        if name == "defoproperty":
            return self.define(form, Kind.OBJECT_PROPERTY)
        if name == "use":
            return self._use(form)
        if name == "read-external":
            return self._read_external(form)
        if name == "deftest":
            return self._deftest(form)
        if name == "deftemplate":
            return patterns.define_template(self, form)
        if name == "as-disjoint-subclasses":
            return patterns.disjoint_subclasses(self, form)
        if name == "with-suffix":
            return patterns.affix_block(self, form, "suffix")
        if name == "with-prefix":
            return patterns.affix_block(self, form, "prefix")
        if name == "value-partition":
            return patterns.value_partition(self, form)
        template = self.env.templates.get(name)
        if template is not None:
            return patterns.apply_template(self, template, form)
        raise UnboundIdentifier(f"unbound identifier '{name}'", head.location)

    # --- options ---

    # Options whose values are themselves keywords (:characteristic :functional).
    _KEYWORD_VALUED = {"characteristic", "naming"}

    def _option_groups(
        self, forms, known: set[str]
    ) -> list[tuple[Keyword, list[Form]]]:
        groups: list[tuple[Keyword, list[Form]]] = []
        for form in forms:
            if isinstance(form, Keyword) and form.name in known:
                groups.append((form, []))
            elif isinstance(form, Keyword) and not (
                groups and groups[-1][0].name in self._KEYWORD_VALUED
            ):
                raise UnknownOption(f"unknown option ':{form.name}'", form.location)
            elif not groups:
                raise EvalError("expected an option keyword", form.location)
            else:
                groups[-1][1].append(form)
        return groups

    def _require_values(self, kw: Keyword, values: list[Form]) -> None:
        if not values:
            raise EvalError(f"option ':{kw.name}' needs at least one value", kw.location)

    def _annotation_axiom(self, subject: IRI, value_form: Form) -> AnnotationAssertion:
        if not (
            isinstance(value_form, ListForm)
            and len(value_form.children) in (2, 3)
            and isinstance(value_form.children[0], Identifier)
            and value_form.children[0].name in ("label", "comment")
            and all(isinstance(c, Text) for c in value_form.children[1:])
        ):
            raise EvalError(
                'annotation values look like (label "text" "lang")', value_form.location
            )
        prop = RDFS_LABEL if value_form.children[0].name == "label" else RDFS_COMMENT
        text = value_form.children[1].value
        lang = value_form.children[2].value if len(value_form.children) == 3 else None
        try:
            return AnnotationAssertion(subject, prop, AnnotationValue(text, lang))
        except ValueError as err:
            raise EvalError(str(err), value_form.location)

    def _single_text(self, kw: Keyword, values: list[Form]) -> str:
        if len(values) != 1 or not isinstance(values[0], Text):
            raise EvalError(f"option ':{kw.name}' needs exactly one text value", kw.location)
        return values[0].value

    def option_axioms(self, entity: Entity, forms) -> list[Axiom]:
        """The axioms a form's options state about entity, from its kind's options."""
        axioms: list[Axiom] = []
        for kw, values in self._option_groups(forms, _OPTIONS[entity.kind]):
            self._require_values(kw, values)
            if kw.name in ("label", "comment"):
                prop = RDFS_LABEL if kw.name == "label" else RDFS_COMMENT
                text = self._single_text(kw, values)
                axioms.append(AnnotationAssertion(entity.iri, prop, AnnotationValue(text, "en")))
            elif kw.name == "annotation":
                axioms.extend(self._annotation_axiom(entity.iri, v) for v in values)
            elif kw.name == "subclass":
                axioms.extend(SubClassOf(Named(entity), self.eval_ce(v)) for v in values)
            elif kw.name == "equivalent":
                operands = (Named(entity), *(self.eval_ce(v) for v in values))
                axioms.append(EquivalentClasses(operands))
            elif kw.name == "disjoint":
                others = tuple(self.resolve_ref(v, Kind.CLASS) for v in values)
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
                    SubObjectPropertyOf(entity, self.resolve_ref(v, Kind.OBJECT_PROPERTY))
                    for v in values
                )
            else:
                assert kw.name == "characteristic"
                for v in values:
                    if isinstance(v, Keyword) and v.name == "functional":
                        axioms.append(FunctionalObjectProperty(entity))
                    elif isinstance(v, Keyword) and v.name == "transitive":
                        axioms.append(TransitiveObjectProperty(entity))
                    else:
                        raise EvalError(
                            "characteristics are :functional or :transitive", v.location
                        )
        return axioms

    # --- class expressions ---

    def eval_ce(self, form: Form) -> ClassExpression:
        if isinstance(form, Identifier):
            return Named(self.resolve_ref(form, Kind.CLASS))
        if not isinstance(form, ListForm) or not form.children:
            raise EvalError("expected a class expression", form.location)
        head = form.children[0]
        if not isinstance(head, Identifier):
            raise EvalError("expected a class expression", form.location)
        args = form.children[1:]
        name = head.name
        if name in ("owland", "owlor"):
            if not args:
                raise EvalError(f"{name} needs at least one operand", form.location)
            operands = [self.eval_ce(a) for a in args]
            if len(operands) == 1:
                return operands[0]
            return And(tuple(operands)) if name == "owland" else Or(tuple(operands))
        if name == "owlnot":
            if len(args) != 1:
                raise EvalError("owlnot takes exactly one operand", form.location)
            return Not(self.eval_ce(args[0]))
        if name in ("owlsome", "owlonly"):
            if len(args) != 2:
                raise EvalError(f"{name} takes a property and a filler", form.location)
            prop = self.resolve_ref(args[0], Kind.OBJECT_PROPERTY)
            filler = self.eval_ce(args[1])
            return Some(prop, filler) if name == "owlsome" else Only(prop, filler)
        if name == "owlclass":
            return Named(self.eval_owlclass(form))
        raise UnboundIdentifier(f"unbound identifier '{name}'", head.location)

    def eval_owlclass(self, form: ListForm) -> Entity:
        """(owlclass "Name" options...): declare a class without binding it."""
        args = form.children[1:]
        if not args or not isinstance(args[0], Text):
            raise EvalError("owlclass needs a text name", form.location)
        entity = self.declare(args[0].value, args[0], Kind.CLASS, bind=False)
        self.add_axioms(self.option_axioms(entity, args[1:]), form)
        return entity

    # --- definition forms ---

    def _defontology(self, form: ListForm) -> Ontology:
        if self.env.ontology is not None:
            raise DuplicateOntology("namespace already defines an ontology", form.location)
        children = form.children
        if len(children) < 2 or not isinstance(children[1], Identifier):
            raise EvalError("defontology needs a name", form.location)
        name = children[1].name
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", children[1].location)
        iri_text: str | None = None
        prefix: str | None = None
        for kw, values in self._option_groups(children[2:], _ONTOLOGY_OPTIONS):
            self._require_values(kw, values)
            if kw.name == "iri":
                iri_text = self._single_text(kw, values)
            else:
                prefix = self._single_text(kw, values)
        if iri_text is None:
            raise EvalError("defontology needs :iri", form.location)
        try:
            ontology = Ontology(IRI(iri_text))
        except ValueError as err:
            raise EvalError(str(err), form.location)
        if prefix is not None and not _PREFIX_LABEL_RE.match(prefix):
            raise EvalError(f"invalid prefix label '{prefix}'", form.location)
        if prefix in BUILTIN_PREFIXES:
            raise EvalError(f"prefix label '{prefix}' is reserved", form.location)
        ontology.add_prefix(iri_text, prefix)
        self.env.ontology = ontology
        if self.env.namespace is None:
            self.env.namespace = name
        return ontology

    def define(self, form: ListForm, kind: Kind) -> Entity:
        """(defclass Name options...) or (defoproperty Name options...)"""
        children = form.children
        if len(children) < 2 or not isinstance(children[1], Identifier):
            raise EvalError(f"{children[0].name} needs a name", form.location)
        entity = self.declare(children[1].name, children[1], kind)
        self.add_axioms(self.option_axioms(entity, children[2:]), form)
        return entity

    def _use(self, form: ListForm) -> "Environment":
        children = form.children
        if len(children) != 2 or not isinstance(children[1], Identifier):
            raise EvalError("use needs a namespace name", form.location)
        ns = children[1].name
        if self.loader is None:
            raise EvalError("no source loader available for (use ...)", form.location)
        try:
            dep = self.loader.load(ns)
            for name, entity in dep.bindings.items():
                if "/" not in name:
                    self.env.bindings[f"{ns}/{name}"] = entity
                    self.env.ontology.admit(entity, Arrival.IMPORT)
        except OntoforgeError as err:
            raise self._located(err, children[1].location)
        self.env.uses.append(dep)
        self.add_axioms([Import(dep.ontology.iri)], form)
        for label, base in dep.ontology.prefixes.items():
            self.env.ontology.add_prefix(base, label)
        return dep

    def _read_external(self, form: ListForm) -> int:
        children = form.children
        if len(children) < 2 or not isinstance(children[1], Text):
            raise EvalError("read-external needs a file path", form.location)
        naming = "fragment"
        prefix: str | None = None
        for kw, values in self._option_groups(children[2:], {"naming", "prefix"}):
            self._require_values(kw, values)
            if kw.name == "naming":
                value = values[0]
                if len(values) != 1 or not isinstance(value, Keyword) or value.name not in (
                    "fragment",
                    "label",
                ):
                    raise EvalError(":naming is :fragment or :label", kw.location)
                naming = value.name
            else:
                prefix = self._single_text(kw, values)
        path = Path(children[1].value)
        if not path.is_absolute():
            path = (self.env.source_dir or Path.cwd()) / path
        external = parse_functional(_read_source(path), str(path))
        try:
            return intern_external(self.env, external, naming=naming, prefix=prefix)
        except OntoforgeError as err:
            raise self._located(err, children[1].location)

    def _deftest(self, form: ListForm) -> TestDef:
        children = form.children
        if len(children) < 2 or not isinstance(children[1], Identifier):
            raise EvalError("deftest needs a name", form.location)
        name = children[1].name
        if not is_valid_identifier(name):
            raise EvalError(f"invalid identifier '{name}'", children[1].location)
        if any(t.name == name for t in self.env.tests):
            raise EvalError(f"duplicate test name '{name}'", children[1].location)
        test = TestDef(name, tuple(children[2:]), form.offset, form.source)
        self.env.tests.append(test)
        return test


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

