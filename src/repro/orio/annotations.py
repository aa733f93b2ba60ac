"""Orio-style annotation parsing.

Orio kernels embed tuning directives in structured comments::

    /*@ begin Loop (
      transform Composite(
        tile      = [("i", "T1_I"), ("j", "T1_J"), ("k", "T1_K")],
        unrolljam = [("i", "U_I"),  ("j", "U_J"),  ("k", "U_K")],
        regtile   = [("i", "RT_I"), ("j", "RT_J"), ("k", "RT_K")],
        vector    = "VEC",
        openmp    = "OMP"
      )
    ) @*/
    for (i = 0; i <= N-1; i++) ...
    /*@ end @*/

Each ``("loopvar", "PARAM")`` pair binds a transformation at one loop
level to a named tuning parameter; scalar entries (``vector``,
``openmp``, ``scalar_replacement``) bind boolean switches.  The comment
body is Python-expression syntax, so it is parsed with :mod:`ast` and
validated structurally — no ``eval``.
"""

from __future__ import annotations

import ast as python_ast
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ParseError
from repro.orio.ast import ForLoop
from repro.orio.parser import parse_loop_nest

__all__ = [
    "TransformSpec",
    "AnnotatedKernel",
    "parse_annotated_blocks",
]

_BLOCK_RE = re.compile(
    r"/\*@\s*begin\s+Loop\s*\((?P<header>.*?)\)\s*@\*/(?P<body>.*?)/\*@\s*end\s*@\*/",
    re.DOTALL,
)

_LIST_KEYS = ("tile", "unrolljam", "regtile")
_SCALAR_KEYS = ("vector", "openmp", "scalar_replacement")


@dataclass(frozen=True)
class TransformSpec:
    """Which transformation parameter controls which loop level."""

    tile: tuple[tuple[str, str], ...] = ()
    unrolljam: tuple[tuple[str, str], ...] = ()
    regtile: tuple[tuple[str, str], ...] = ()
    scalars: Mapping[str, str] = field(default_factory=dict)  # option -> param name

    def parameter_names(self) -> list[str]:
        """Every tuning-parameter name referenced, in annotation order."""
        names = [p for _, p in self.tile]
        names += [p for _, p in self.unrolljam]
        names += [p for _, p in self.regtile]
        names += list(self.scalars.values())
        return names


@dataclass(frozen=True)
class AnnotatedKernel:
    """A parsed annotated kernel: the loop nest plus its transform spec."""

    nest: ForLoop
    spec: TransformSpec
    body_source: str


def _parse_pairs(node: python_ast.expr, key: str) -> tuple[tuple[str, str], ...]:
    try:
        value = python_ast.literal_eval(node)
    except (ValueError, SyntaxError) as exc:
        raise ParseError(f"annotation key {key!r}: not a literal list: {exc}") from None
    if not isinstance(value, list):
        raise ParseError(f"annotation key {key!r}: expected a list of pairs")
    pairs: list[tuple[str, str]] = []
    for item in value:
        if (
            not isinstance(item, tuple)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise ParseError(f"annotation key {key!r}: entries must be (loopvar, param) strings")
        pairs.append((item[0], item[1]))
    seen_vars = [v for v, _ in pairs]
    if len(set(seen_vars)) != len(seen_vars):
        raise ParseError(f"annotation key {key!r}: duplicate loop variable")
    return tuple(pairs)


def _parse_header(header: str) -> TransformSpec:
    header = header.strip()
    if not header.startswith("transform"):
        raise ParseError("Loop annotation must contain a 'transform' clause")
    expr_src = header[len("transform") :].strip()
    try:
        tree = python_ast.parse(expr_src, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"malformed transform clause: {exc}") from None
    call = tree.body
    if not isinstance(call, python_ast.Call) or not isinstance(call.func, python_ast.Name):
        raise ParseError("transform clause must be a Composite(...) call")
    if call.func.id != "Composite":
        raise ParseError(f"unsupported transform {call.func.id!r} (only Composite)")
    if call.args:
        raise ParseError("Composite takes keyword arguments only")
    lists: dict[str, tuple[tuple[str, str], ...]] = {}
    scalars: dict[str, str] = {}
    for kw in call.keywords:
        if kw.arg is None:
            raise ParseError("Composite does not accept **kwargs")
        if kw.arg in _LIST_KEYS:
            lists[kw.arg] = _parse_pairs(kw.value, kw.arg)
        elif kw.arg in _SCALAR_KEYS:
            try:
                value = python_ast.literal_eval(kw.value)
            except (ValueError, SyntaxError) as exc:
                raise ParseError(f"annotation key {kw.arg!r}: {exc}") from None
            if not isinstance(value, str):
                raise ParseError(f"annotation key {kw.arg!r}: expected a parameter name string")
            scalars[kw.arg] = value
        else:
            raise ParseError(f"unknown Composite option {kw.arg!r}")
    return TransformSpec(
        tile=lists.get("tile", ()),
        unrolljam=lists.get("unrolljam", ()),
        regtile=lists.get("regtile", ()),
        scalars=scalars,
    )


def parse_annotated_blocks(
    source: str, consts: Mapping[str, int] | None = None
) -> list[AnnotatedKernel]:
    """Extract every annotated loop block of a kernel source, in order.

    ``consts`` binds problem-size symbols (e.g. ``{"N": 2000}``) so the
    parsed nests have concrete bounds.  Multi-phase kernels (ATAX:
    ``t = A x`` then ``y = A^T t``) annotate each phase separately; the
    phases share the configuration namespace.
    """
    matches = list(_BLOCK_RE.finditer(source))
    if not matches:
        raise ParseError("no /*@ begin Loop ... @*/ ... /*@ end @*/ block found")
    return [_parse_block(m, consts) for m in matches]


def _parse_block(m: "re.Match[str]", consts: Mapping[str, int] | None) -> AnnotatedKernel:
    spec = _parse_header(m.group("header"))
    body_source = m.group("body").strip()
    nest = parse_loop_nest(body_source, consts)
    # Every loop variable referenced by the spec must exist in the nest.
    loop_vars = set()
    stack = [nest]
    while stack:
        node = stack.pop()
        if isinstance(node, ForLoop):
            loop_vars.add(node.var)
            stack.extend(s for s in node.body if isinstance(s, ForLoop))
    for key, pairs in (("tile", spec.tile), ("unrolljam", spec.unrolljam), ("regtile", spec.regtile)):
        for var, _ in pairs:
            if var not in loop_vars:
                raise ParseError(f"annotation {key} references unknown loop {var!r}")
    return AnnotatedKernel(nest=nest, spec=spec, body_source=body_source)
