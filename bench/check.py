"""Compare what one nccw job printed with the oracle's expectation.

``verdict(expect, argv, rc, stdout)`` returns None for a correct answer or
the failure kind: ``exit`` (non-zero exit), ``wrong`` (a group or page
entry differs, or the output cannot be read) or ``flag`` (the groups are
right but an extension flag is not).  Tracebacks are counted by the caller,
which sees the exception.
"""

from __future__ import annotations

import json
import re

from .oracle import parse_group

_PARITY = {"even": 0, "odd": 1}
_ENTRY = re.compile(r"^  \(p=(-?\d+), q=(even|odd)\): (.+)$")


def _read_json(stdout: str) -> dict:
    payload = json.loads(stdout)
    out = {key: (payload[key]["group"], payload[key]["up_to_extension"]) for key in _PARITY}
    pages = payload.get("pages")
    if pages:
        out["last_page"] = {
            (e["p"], _PARITY[e["parity"]]): e["group"] for e in pages[-1]["entries"]
        }
    return out


def _read_text(stdout: str, paper_k: int | None) -> dict:
    out, page = {}, None
    for line in stdout.splitlines():
        for key in _PARITY:
            if line.startswith(key + ": "):
                text = line[len(key) + 2 :]
                flagged = text.endswith(" (up to extension)")
                out[key] = (text.removesuffix(" (up to extension)"), flagged)
        if line.startswith("page E^"):
            page = {}
            out["last_page"] = page
        m = _ENTRY.match(line)
        if m and page is not None:
            p = int(m.group(1))
            page[(paper_k - p if paper_k is not None else p, _PARITY[m.group(2)])] = m.group(3)
    if set(_PARITY) - set(out):
        raise ValueError("missing even/odd line")
    return out


def _same_group(text: str, expected, theory: str) -> bool:
    symbol, got = parse_group(text)
    if symbol is not None and symbol != ("Q" if theory == "HP" else "Z"):
        return False
    return [got[0], list(got[1])] == expected


def verdict(expect: dict, argv: list[str], rc, stdout: str) -> str | None:
    if rc != 0:
        return "exit"
    try:
        if expect["type"] == "complex":
            return None if json.loads(stdout) == expect["payload"] else "wrong"
        if "--json" in argv:
            got = _read_json(stdout)
        else:
            got = _read_text(stdout, expect["k"] if "--paper-indexing" in argv else None)
        theory = expect["theory"]
        for key in _PARITY:
            if not _same_group(got[key][0], expect[key], theory):
                return "wrong"
        if "last_page" in expect:
            page = got.get("last_page", {})
            want = {tuple(int(x) for x in k.split(",")): v for k, v in expect["last_page"].items()}
            if set(page) != set(want) or not all(
                _same_group(page[k], want[k], theory) for k in want
            ):
                return "wrong"
        if any(got[key][1] != expect[key + "_ext"] for key in _PARITY):
            return "flag"
    except (ValueError, KeyError, TypeError, IndexError):
        return "wrong"
    return None
