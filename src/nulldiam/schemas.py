"""JSON Schemas for the stable machine-readable outputs.

The CLI's JSON lines (``invariants``, ``check``, ``reduce --format
json``) and the sweep report validate against these; text output is for
humans and carries no compatibility promise.  The report's
``inconclusive`` key is a constant empty list, written by
``SweepReport.to_dict`` with no field behind it: the recognizer reads one
diameter path and always decides, and the key stays for readers of the
report.

The empty graph (graph6 ``?``, n = 0) is valid input.  ``invariants``
answers it with ``connected`` false, ``d`` null and ``rank``, ``nullity``
and ``e`` all 0.  ``check`` rejects it as an input error (exit 2), since a
recognition result needs n >= 1, and so does ``reduce``.

The report's ``lemma_summaries`` holds one summary per suite: graphs and
instances checked, graphs skipped by the suite's hypothesis gate or with a
capped subset sweep, and every violation.  ``reduction-equivalence`` adds
the graphs whose twin reduction lowers the diameter (``diameter_changed``),
and ``pendant-deletion`` counts the instances where deleting the support
alone keeps the nullity (``support_only_holds``) and where it does not
(``support_only_fails``).
"""

from __future__ import annotations

_PARAMS = {
    "type": ["object", "null"],
    "properties": {
        "b": {"type": "integer", "minimum": 0},
        "A": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["b", "A"],
    "additionalProperties": False,
}

INVARIANT_RECORD = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "graph6": {"type": "string"},
        "n": {"type": "integer", "minimum": 0},
        "connected": {
            "type": "boolean",
            "description": "false for the empty graph (n = 0) as well",
        },
        "d": {
            "type": ["integer", "null"],
            "minimum": 0,
            "description": "null when the graph is disconnected or empty (n = 0)",
        },
        "rank": {"type": "integer", "minimum": 0},
        "nullity": {"type": "integer", "minimum": 0},
        "e": {"type": "integer", "minimum": 0},
        "reduced": {"type": "boolean"},
    },
    "required": ["graph6", "n", "connected", "d", "rank", "nullity", "e", "reduced"],
    "additionalProperties": False,
}

RECOGNITION_RESULT = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "graph6": {"type": "string"},
        "verdict": {"enum": ["NotExtremal", "OddExtremal", "EvenExtremal", "Mismatch"]},
        "n": {
            "type": "integer",
            "minimum": 1,
            "description": "check answers n = 0 with an input error line instead",
        },
        "d": {"type": "integer", "minimum": 0},
        "nullity": {"type": "integer", "minimum": 0},
        "params": _PARAMS,
        "variant": {"enum": ["G2", "G3", None]},
        "witness": {"type": ["object", "null"]},
    },
    "required": ["graph6", "verdict", "n", "d", "nullity", "params", "variant", "witness"],
    "additionalProperties": False,
}

REDUCTION_RECORD = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "graph6": {"type": "string"},
        "reduced_graph6": {"type": "string"},
        "removed": {"type": "integer", "minimum": 0},
        "d": {"type": "integer", "minimum": 0},
        "d_reduced": {"type": "integer", "minimum": 0, "description": "can be below d"},
    },
    "required": ["graph6", "reduced_graph6", "removed", "d", "d_reduced"],
    "additionalProperties": False,
}

VIOLATION = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "lemma": {"type": "string"},
        "graph6": {"type": "string"},
        "witness": {"type": "object"},
        "expected": {"type": "string"},
        "observed": {"type": "string"},
        "severity": {"enum": ["violation", "high"]},
    },
    "required": ["lemma", "graph6", "witness", "expected", "observed", "severity"],
    "additionalProperties": False,
}

SUITE_SUMMARY = {
    "type": "object",
    "properties": {
        "graphs": {"type": "integer", "minimum": 0},
        "instances": {"type": "integer", "minimum": 0},
        "violations": {"type": "array", "items": VIOLATION},
        "skipped": {"type": "integer", "minimum": 0},
        "truncated": {"type": "integer", "minimum": 0},
        "diameter_changed": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "graph6": {"type": "string"},
                    "original": {"type": "integer", "minimum": 0},
                    "reduced": {"type": "integer", "minimum": 0},
                    "changed": {"const": True},
                },
                "required": ["graph6", "original", "reduced", "changed"],
                "additionalProperties": False,
            },
        },
        "support_only_holds": {"type": "integer", "minimum": 1},
        "support_only_fails": {"type": "integer", "minimum": 1},
    },
    "required": ["graphs", "instances", "violations", "skipped", "truncated"],
    "additionalProperties": False,
}

SWEEP_TOTALS = {
    "type": "object",
    "properties": {
        "connected": {"type": "integer", "minimum": 0},
        "reduced": {"type": "integer", "minimum": 0},
        "extremal": {"type": "integer", "minimum": 0},
        "odd_extremal": {"type": "integer", "minimum": 0},
        "even_extremal": {"type": "integer", "minimum": 0},
        "recognized": {"type": "integer", "minimum": 0},
    },
    "required": ["connected", "reduced", "extremal", "odd_extremal", "even_extremal", "recognized"],
    "additionalProperties": False,
}

SWEEP_REPORT = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "n_min": {"type": "integer"},
        "n_max": {"type": "integer"},
        "suites": {"type": "array", "items": {"type": "string"}, "uniqueItems": True},
        "per_n": {"type": "object", "additionalProperties": SWEEP_TOTALS},
        "mismatches": {"type": "array", "items": {"type": "string"}},
        "inconclusive": {"type": "array", "items": {"type": "string"}, "maxItems": 0},
        "recognized": {"type": "array", "items": {"type": "object"}},
        "unreduced_failures": {"type": "array", "items": {"type": "string"}},
        "lemma_summaries": {"type": "object", "additionalProperties": SUITE_SUMMARY},
        "timings": {"type": "object", "additionalProperties": {"type": "number"}},
    },
    "required": [
        "n_min",
        "n_max",
        "suites",
        "per_n",
        "mismatches",
        "inconclusive",
        "recognized",
        "unreduced_failures",
        "lemma_summaries",
    ],
    "additionalProperties": False,
}
