"""Wire format for algebra elements.

A document is a JSON object ``{"shape": [n1, ...], "blocks": [B1, ...]}``
where block ``Bi`` is an ``ni x ni`` array of ``[re, im]`` pairs of decimal
literals.  The format needs no dependencies to parse in any language and
round-trips every IEEE double exactly (Python's ``repr`` emits the shortest
exact decimal).
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraElement
from .errors import WireFormatError


def element_to_dict(a: AlgebraElement) -> dict:
    if a.is_stack:
        raise WireFormatError("a stack of elements has no wire document")
    return {
        "shape": [int(n) for n in a.shape],
        "blocks": [
            [[[float(v.real), float(v.imag)] for v in row] for row in block]
            for block in a.blocks
        ],
    }


def serialize_element(a: AlgebraElement) -> str:
    return json.dumps(element_to_dict(a), separators=(",", ":")) + "\n"


def _is_number(value, types) -> bool:
    """JSON ``true``/``false`` parse as ``bool``, a subclass of ``int``; they are no numbers."""
    return isinstance(value, types) and not isinstance(value, bool)


def element_from_dict(doc: dict) -> AlgebraElement:
    if not isinstance(doc, dict):
        raise WireFormatError("document must be a JSON object")
    for key in ("shape", "blocks"):
        if key not in doc:
            raise WireFormatError(f"missing field {key!r}")
    shape = doc["shape"]
    blocks_doc = doc["blocks"]
    if not isinstance(shape, list) or not all(_is_number(n, int) for n in shape):
        raise WireFormatError("'shape' must be a list of integers")
    if not isinstance(blocks_doc, list):
        raise WireFormatError(f"'blocks' must be a list of {len(shape)} blocks")
    if len(blocks_doc) != len(shape):
        raise WireFormatError(
            f"'blocks' must list exactly {len(shape)} blocks", f"got {len(blocks_doc)}"
        )
    blocks = []
    for i, (n, block) in enumerate(zip(shape, blocks_doc)):
        context = f"block {i}"
        if not isinstance(block, list) or len(block) != n:
            raise WireFormatError(f"block must have {n} rows", context)
        mat = np.zeros((n, n), dtype=complex)
        for r, row in enumerate(block):
            if not isinstance(row, list) or len(row) != n:
                raise WireFormatError(f"row {r} must have {n} entries", context)
            for c, entry in enumerate(row):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(_is_number(v, (int, float)) for v in entry)
                ):
                    raise WireFormatError(
                        f"entry ({r}, {c}) must be a [re, im] pair of numbers", context
                    )
                try:
                    mat[r, c] = complex(entry[0], entry[1])
                except OverflowError as exc:  # an integer literal past the double range
                    raise WireFormatError(
                        f"entry ({r}, {c}) is out of the double range", context
                    ) from exc
        blocks.append(mat)
    try:
        return AlgebraElement(tuple(shape), tuple(blocks))
    except Exception as exc:
        raise WireFormatError(f"element validation failed: {exc}") from exc


def parse_element(text: str) -> AlgebraElement:
    """Reconstruct an element bit-exactly from its wire document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireFormatError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise WireFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise WireFormatError("invalid JSON: arrays or objects nest too deeply") from exc
    return element_from_dict(doc)
