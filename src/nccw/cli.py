"""Command-line front end.

Subcommands
-----------
``validate PATH``
    Parse and validate a complex file; exit 0 when it builds.
``compute PATH [--theory k|hp] [--pages] [--paper-indexing] [--json]``
    Assemble the even/odd theory groups, optionally dumping every page.
``transform PATH --op suspend|cone|cylinder|mapcone [--map PATH] [--theory] [--json]``
    Apply a construction.  ``suspend`` emits a new complex file; the
    other operations emit a result file.
``fibration --base PATH (--coeff-even S --coeff-odd S | --map PATH --total PATH) [--theory] [--json]``
    Coefficient spectral sequence over a base: dumps the second page and
    the assembled totals.  The two modes do not mix.

Exit codes: 0 success, 1 domain or validation error, 2 parse error (of a
file or of the command line).  Each failure prints one ``error:`` line.

``COMMANDS`` is the one table of the subcommands, their positionals and
their long options, and ``_Parser`` reads a command line against it with
argparse's grammar: ``--opt value`` and ``--opt=value``; a unique prefix
of a long option names it and an ambiguous one is refused; ``--`` ends
the options, also when nothing follows it, and a lone ``-`` is a value;
the last of a repeated option wins; a flag given ``=value`` is refused.
Arguments are read left to right, and ``-h`` or ``--help`` prints help
made from the same table and raises ``SystemExit(0)`` when it is reached.
A refusal is one ``error: nccw <cmd>: ...`` line.

File formats (JSON, integers only, no floats anywhere):

* complex file::

    {"name": "i2",
     "stages": [{"dim": 0, "algebra": [1, 1]},
                {"dim": 1, "F": [2], "phi0": [[2, 0]], "phi1": [[0, 2]]},
                {"dim": 2, "F": [1], "delta": [[...]]}]}

  or, for a classical CW complex (boundaries map (p+1)-cells to p-cells)::

    {"name": "rp2", "classical_cw": {"counts": [1, 1, 1],
                                     "boundaries": [[[0]], [[2]]]}}

* morphism file (``maps[p]`` has one row per codomain p-cell)::

    {"name": "incl", "dst": {...complex...}, "maps": [[[1]]]}

  In fibration mode the codomain comes from ``--total`` instead and the
  ``dst`` field may be omitted.

Group strings use the grammar ``0 | Z^r | Z/d | term (+) term ...`` (a
bare ``+`` is accepted as separator on input, and ``Q`` in place of ``Z``
for rational groups); ``r`` and ``d`` are ASCII decimal digits.

The environment variable ``NCCW_MAX_DIM`` (default 8) caps the accepted
tower height.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace

from . import cellmodel, constructions, fibration, ssengine
from .errors import NCCWError, OutOfRange, ShapeMismatch
from .exacthom import FGAbelianGroup, IntMatrix, intmat
from .findim import THEORY_HP, THEORY_K, FinDimAlgebra, MultMorphism, ring_of
from .ssengine import ASSEMBLY_UP_TO_EXTENSION, PARITY_EVEN, Assembly, Page

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

DEFAULT_MAX_DIM = 8


class FileFormatError(Exception):
    """Anything in the input text that is not a well-formed definition."""


# ---------------------------------------------------------------------------
# parsing


def _load_json(path: str):
    try:
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ``open`` refuses a NUL byte, or what the file system encoding
        # cannot encode, before it reads anything
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        with fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # undecodable text, bad syntax, or an integer literal longer than
        # the interpreter converts from a string
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError(f"{path}: JSON nested too deeply") from None


def _expect_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    return obj


def _parse_sizes(obj, where: str, minimum: int) -> list[int]:
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in obj
    ):
        raise FileFormatError(f"{where}: expected a list of integers")
    for i, x in enumerate(obj):
        if x < minimum:
            raise FileFormatError(f"{where}: entry {i} is {x}, expected an integer >= {minimum}")
    return list(obj)


def _parse_matrix(obj, shape: tuple[int, int], where: str) -> IntMatrix:
    """A matrix of the given shape; ``[]`` also stands for ``n`` empty rows.
    ``intmat`` reports every shape and entry error."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise FileFormatError(f"{where}: expected a matrix (list of rows)")
    if obj == [] and shape[1] == 0:
        obj = [[] for _ in range(shape[0])]
    try:
        return intmat(obj, shape=shape)
    except ShapeMismatch as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def _dim_cap() -> int:
    raw = os.environ.get("NCCW_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        return int(raw)
    except ValueError:
        raise NCCWError(f"NCCW_MAX_DIM={raw!r} is not an integer") from None


def parse_complex(obj, default_name: str) -> tuple[str, cellmodel.NCCWComplex]:
    """Schema errors raise ``FileFormatError``; the assembled stages are
    then validated by :func:`cellmodel.build`, whose failures are domain
    errors.  The ``NCCW_MAX_DIM`` height cap applies to every complex
    parsed, inline or not, as soon as its height is known."""
    obj = _expect_object(obj, "complex file")
    name = obj.get("name", default_name)
    if not isinstance(name, str):
        raise FileFormatError("'name' must be a string")
    if "name" in obj:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise FileFormatError("'name' is not printable: it holds a lone surrogate") from None
    if "classical_cw" in obj:
        cw = _expect_object(obj["classical_cw"], "classical_cw")
        counts = _parse_sizes(cw.get("counts"), "classical_cw.counts", 0)
        _check_height(len(counts) - 1)
        raw = cw.get("boundaries")
        if not isinstance(raw, list) or len(raw) != max(len(counts) - 1, 0):
            raise FileFormatError(
                "classical_cw.boundaries must hold one matrix per adjacent dimension pair"
            )
        boundaries = [
            _parse_matrix(b, (counts[p], counts[p + 1]), f"boundary {p + 1}")
            for p, b in enumerate(raw)
        ]
        return name, cellmodel.from_classical_cw(counts, boundaries)
    if "stages" not in obj:
        raise FileFormatError("complex file needs 'stages' or 'classical_cw'")
    raw_stages = obj["stages"]
    if not isinstance(raw_stages, list) or not raw_stages:
        raise FileFormatError("'stages' must be a nonempty list")
    _check_height(len(raw_stages) - 1)
    stages = []
    prev_count = None
    for idx, rec in enumerate(raw_stages):
        rec = _expect_object(rec, f"stage {idx}")
        dim = rec.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise FileFormatError(f"stage {idx}: 'dim' must be an integer")
        if dim == 0:
            sizes = _parse_sizes(rec.get("algebra"), f"stage {idx}.algebra", 1)
            stages.append(cellmodel.NCCWStage(0, FinDimAlgebra(sizes)))
        else:
            sizes = _parse_sizes(rec.get("F"), f"stage {idx}.F", 1)
            alg = FinDimAlgebra(sizes)
            if "phi0" in rec or "phi1" in rec:
                if prev_count is None:
                    raise FileFormatError(f"stage {idx}: endpoint data before stage 0")
                shape = (alg.block_count, stages[0].cell_algebra.block_count)
                phi0 = _parse_matrix(rec.get("phi0"), shape, f"stage {idx}.phi0")
                phi1 = _parse_matrix(rec.get("phi1"), shape, f"stage {idx}.phi1")
                attaching = cellmodel.EndpointPair(
                    MultMorphism(stages[0].cell_algebra, alg, phi0),
                    MultMorphism(stages[0].cell_algebra, alg, phi1),
                )
            elif "delta" in rec:
                if prev_count is None:
                    raise FileFormatError(f"stage {idx}: coboundary before stage 0")
                shape = (alg.block_count, prev_count)
                attaching = cellmodel.ProvidedCoboundary(
                    _parse_matrix(rec["delta"], shape, f"stage {idx}.delta")
                )
            else:
                raise FileFormatError(f"stage {idx}: needs 'phi0'/'phi1' or 'delta'")
            stages.append(cellmodel.NCCWStage(dim, alg, attaching))
        prev_count = stages[-1].cell_algebra.block_count
    return name, cellmodel.build(stages)


def _check_height(height: int) -> None:
    cap = _dim_cap()
    if height > cap:
        raise OutOfRange(f"tower height {height} exceeds NCCW_MAX_DIM={cap}")


def load_complex(path: str) -> tuple[str, cellmodel.NCCWComplex]:
    obj = _load_json(path)
    # a file name need not be UTF-8; the printed name shows U+FFFD instead
    stem = os.path.splitext(os.path.basename(os.fsencode(path)))[0]
    return parse_complex(obj, stem.decode("utf-8", "replace"))


def parse_morphism_maps(obj, src, dst) -> constructions.CellularMorphism:
    """Degree maps from a morphism file against already-built cochain
    models; missing trailing degrees are zero."""
    obj = _expect_object(obj, "morphism file")
    raw = obj.get("maps")
    if not isinstance(raw, list):
        raise FileFormatError("'maps' must be a list of matrices")
    top = max(src.top_degree, dst.top_degree)
    if len(raw) > top + 1:
        raise FileFormatError(f"'maps' lists {len(raw)} degrees, expected at most {top + 1}")
    mats = [
        _parse_matrix(m, (dst.rank(p), src.rank(p)), f"maps[{p}]")
        for p, m in enumerate(raw)
    ]
    return constructions.CellularMorphism(src, dst, mats)


def _group_number(token: str) -> int:
    """The ASCII decimal digits after a term's two-character prefix."""
    digits = token[2:]
    if not (digits.isascii() and digits.isdigit()):
        raise FileFormatError(f"bad group term {token!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise FileFormatError(f"bad group term {token!r}") from None


def parse_group(text: str) -> FGAbelianGroup:
    """Inverse of :meth:`FGAbelianGroup.render`; also accepts a bare ``+``
    separator and the ``Q`` symbol."""
    s = text.strip()
    if s == "0":
        return FGAbelianGroup.trivial()
    free, orders = 0, []
    for token in s.replace("(+)", "+").split("+"):
        token = token.strip()
        if token in ("Z", "Q"):
            free += 1
        elif token.startswith(("Z^", "Q^")):
            r = _group_number(token)
            if r < 1:
                raise FileFormatError(f"bad free rank in {token!r}")
            free += r
        elif token.startswith("Z/"):
            d = _group_number(token)
            if d < 2:
                raise FileFormatError(f"bad torsion order in {token!r}")
            orders.append(d)
        else:
            raise FileFormatError(f"bad group term {token!r}")
    return FGAbelianGroup.from_cyclic_orders(orders, free)


# ---------------------------------------------------------------------------
# payloads and rendering


def assembly_payload(a: Assembly, symbol: str) -> dict:
    return {
        "group": a.group.render(symbol),
        "pieces": [g.render(symbol) for g in a.pieces],
        "up_to_extension": a.note == ASSEMBLY_UP_TO_EXTENSION,
    }


def page_payload(page: Page, symbol: str) -> dict:
    k = page.k
    entries = []
    for (p, parity) in page.support():
        entries.append(
            {
                "p": p,
                "paper_p": k - p,
                "parity": "even" if parity == PARITY_EVEN else "odd",
                "group": page.entry(p, parity).render(symbol),
            }
        )
    diffs = []
    for (p, parity) in sorted(page.differentials.keys()):
        target_p, _ = page.step(p, parity)
        diffs.append(
            {
                "p": p,
                "paper_p": k - p,
                "parity": "even" if parity == PARITY_EVEN else "odd",
                "target_p": target_p,
                "target_paper_p": k - target_p,
                # written from its sparse rows by ``_indented`` or ``emit``
                "matrix": page.differentials[(p, parity)],
            }
        )
    return {"r": page.r, "entries": entries, "differentials": diffs}


def result_payload(name, theory, even, odd, pages=None) -> dict:
    sym = ring_of(theory)
    out = {
        "name": name,
        "theory": theory,
        "even": assembly_payload(even, sym),
        "odd": assembly_payload(odd, sym),
    }
    if pages is not None:
        out["pages"] = [page_payload(pg, sym) for pg in pages]
    return out


_string = json.encoder.encode_basestring_ascii  # json's own C escaper


def _indented(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, which
    would run json's pure-Python encoder.  Strings go through json's C
    escaper and ints through ``int.__repr__``, as json writes them, other
    leaves through ``json.dumps``; a list of plain ints (a matrix row) is
    one join, and an ``IntMatrix`` is written as its dense rows."""
    if type(value) is str:
        return _string(value)
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is IntMatrix:
        return _indented_rows(value, pad)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{_string(k)}: {_indented(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) <= {int}:
            items = map(int.__repr__, value)
        else:
            items = [_indented(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def _indented_rows(m: IntMatrix, pad: str) -> str:
    """``_indented(m.tolist(), pad)`` without the dense ints: each row is
    ``"0"`` in every column, with the nonzeros of its sparse row patched in."""
    if not m.rows:
        return "[]"
    inner = pad + "  "
    cell = inner + "  "
    sep = "," + cell
    ncols = m.shape[1]
    lines = []
    for row in m.rows:
        dense = ["0"] * ncols
        for j, x in row.items():
            dense[j] = int.__repr__(x)
        lines.append("[" + cell + sep.join(dense) + inner + "]" if ncols else "[]")
    return "[" + inner + ("," + inner).join(lines) + pad + "]"


def emit(payload: dict, as_json: bool, paper_indexing: bool = False) -> None:
    if as_json:
        print(_indented(payload))
        return
    print(f"name: {payload['name']}")
    print(f"theory: {payload['theory']}")
    for key in ("even", "odd"):
        block = payload[key]
        suffix = " (up to extension)" if block["up_to_extension"] else ""
        print(f"{key}: {block['group']}{suffix}")
        if len(block["pieces"]) > 1:
            print(f"  pieces: {', '.join(block['pieces'])}")
    for pg in payload.get("pages", []):
        r = pg["r"]
        if paper_indexing:
            print(f"page E^{r} (paper indexing, d^{r}: p -> p-{r}):")
        else:
            print(f"page E^{r} (d^{r}: p -> p+{r}):")
        for e in pg["entries"]:
            p = e["paper_p"] if paper_indexing else e["p"]
            print(f"  (p={p}, q={e['parity']}): {e['group']}")
        for d in pg["differentials"]:
            p = d["paper_p"] if paper_indexing else d["p"]
            tp = d["target_paper_p"] if paper_indexing else d["target_p"]
            print(f"  d at (p={p}, q={d['parity']}) -> p={tp}: {d['matrix'].tolist()}")


def complex_payload(name: str, x: cellmodel.NCCWComplex) -> dict:
    """Serialize a tower in provided-coboundary form."""
    stages: list[dict] = [{"dim": 0, "algebra": list(x.stages[0].cell_algebra.sizes)}]
    for k in range(1, len(x.stages)):
        stages.append(
            {
                "dim": k,
                "F": list(x.stages[k].cell_algebra.sizes),
                "delta": x.cochain.differentials[k - 1].tolist(),
            }
        )
    return {"name": name, "stages": stages}


def suspended_payload(name: str, x: cellmodel.NCCWComplex) -> dict:
    """Complex file of the suspension: every stage moves up one dimension
    above a zero stage-0 algebra; coboundaries ride along."""
    bottom, *rest = complex_payload(name, x)["stages"]
    sizes = bottom["algebra"]
    stages = [{"dim": 0, "algebra": []}, {"dim": 1, "F": sizes, "delta": [[] for _ in sizes]}]
    stages += [dict(s, dim=s["dim"] + 1) for s in rest]
    return {"name": f"{name}_suspended", "stages": stages}


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    name, built = load_complex(args.path)
    print(f"{name}: valid, cell counts {list(built.cochain.ranks)}")
    return EXIT_OK


def _theory(args) -> str:
    return THEORY_HP if args.theory == "hp" else THEORY_K


def cmd_compute(args) -> int:
    name, built = load_complex(args.path)
    theory = _theory(args)
    cochain = cellmodel.cochain_complex(built, theory)
    # stabilized here only because --pages prints every page
    ss = ssengine.stabilize(ssengine.from_cellular(cochain, theory))
    even, odd = ssengine.assemble(ss)
    pages = ss.pages if args.pages else None
    emit(result_payload(name, theory, even, odd, pages), args.json, args.paper_indexing)
    return EXIT_OK


def _load_morphism(args, src_model, theory):
    obj = _load_json(args.map)
    src_cochain = cellmodel.cochain_complex(src_model, theory)
    if args.total:
        _, dst_model = load_complex(args.total)
    else:
        obj = _expect_object(obj, "morphism file")
        if "dst" not in obj:
            raise FileFormatError("morphism file needs a 'dst' complex")
        _, dst_model = parse_complex(obj["dst"], "dst")
    dst_cochain = cellmodel.cochain_complex(dst_model, theory)
    return parse_morphism_maps(obj, src_cochain, dst_cochain)


def cmd_transform(args) -> int:
    name, built = load_complex(args.path)
    theory = _theory(args)
    if args.op == "suspend":
        emit(suspended_payload(name, built), True)
        return EXIT_OK
    if args.op == "cone":
        # the cone is the mapping cone of the identity, which is acyclic
        identity = constructions.CellularMorphism.identity_on(
            cellmodel.cochain_complex(built, theory)
        )
        even, odd = constructions.relative_assemblies(identity, theory)
        emit(result_payload(f"cone({name})", theory, even, odd), args.json)
        return EXIT_OK
    if not args.map:
        raise FileFormatError(f"--op {args.op} needs --map")
    morphism = _load_morphism(args, built, theory)
    if args.op == "cylinder":
        # the cylinder deformation retracts onto the codomain
        even, odd = ssengine.compute_theories(morphism.dst, theory)
        emit(result_payload(f"cylinder({name})", theory, even, odd), args.json)
        return EXIT_OK
    # the table's choices leave "mapcone" as the only other operation
    even, odd = constructions.relative_assemblies(morphism, theory)
    emit(result_payload(f"mapcone({name})", theory, even, odd), args.json)
    return EXIT_OK


def cmd_fibration(args) -> int:
    coefficients = args.coeff_even is not None or args.coeff_odd is not None
    if coefficients and (args.map is not None or args.total is not None):
        raise FileFormatError("give --coeff-even and --coeff-odd, or --map with --total, not both")
    base_name, base_model = load_complex(args.base)
    theory = _theory(args)
    base = cellmodel.cochain_complex(base_model, theory)
    if args.map:
        if not args.total:
            raise FileFormatError("--map needs --total in fibration mode")
        morphism = _load_morphism(args, base_model, theory)
        g_even, g_odd = fibration.relative_coefficients(morphism, theory)
    else:
        if args.coeff_even is None or args.coeff_odd is None:
            raise FileFormatError("need --coeff-even and --coeff-odd, or --map with --total")
        g_even = parse_group(args.coeff_even)
        g_odd = parse_group(args.coeff_odd)
    try:
        data = fibration.SerreFibrationData(
            base, g_even, g_odd, theory, simple=not args.not_simple
        )
    except ValueError as exc:
        raise NCCWError(str(exc)) from exc
    page2 = fibration.leray_serre_e2(data)
    even, odd = fibration.compute_total(page2)
    payload = result_payload(f"fibration({base_name})", theory, even, odd, pages=[page2])
    emit(payload, args.json, args.paper_indexing)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command line, as one table

# An option is (flag, dest, takes a value, choices or None, required, help).
# A flag that takes no value defaults to False and any other option to None,
# unless its subcommand's defaults say otherwise.
_THEORY = ("--theory", "theory", True, ("k", "hp"), False, "k (the default) or hp")
_PAPER_INDEXING = ("--paper-indexing", "paper_indexing", False, None, False,
                   "print p as the paper counts it, p -> k - p")
_JSON = ("--json", "json", False, None, False, "print the result as indented JSON")

# subcommand -> (help, positionals, options, defaults)
COMMANDS = {
    "validate": ("parse and validate a complex file", ("path",), (), {"func": cmd_validate}),
    "compute": (
        "assemble theory groups of a complex",
        ("path",),
        (_THEORY,
         ("--pages", "pages", False, None, False, "dump every page up to E^(k+1)"),
         _PAPER_INDEXING,
         _JSON),
        {"func": cmd_compute, "theory": "k"},
    ),
    "transform": (
        "suspend, cone, cylinder or mapping cone",
        ("path",),
        (("--op", "op", True, ("suspend", "cone", "cylinder", "mapcone"), True,
          "the construction"),
         ("--map", "map", True, None, False, "morphism file (cylinder and mapcone)"),
         _THEORY,
         _JSON),
        {"func": cmd_transform, "theory": "k", "total": None},
    ),
    "fibration": (
        "coefficient spectral sequence over a base",
        (),
        (("--base", "base", True, None, True, "base complex file"),
         ("--coeff-even", "coeff_even", True, None, False,
          "even coefficient group (with --coeff-odd)"),
         ("--coeff-odd", "coeff_odd", True, None, False, "odd coefficient group"),
         ("--map", "map", True, None, False,
          "morphism file from the base into the total model (instead of coefficients)"),
         ("--total", "total", True, None, False, "total complex file (with --map)"),
         _THEORY,
         ("--not-simple", "not_simple", False, None, False,
          "declare the local coefficients non-simple, which is refused"),
         _PAPER_INDEXING,
         _JSON),
        {"func": cmd_fibration, "theory": "k"},
    ),
}

_HELP = ("help", False, None)  # what -h and --help resolve to


def _refusal(prog: str, message: str) -> FileFormatError:
    return FileFormatError(f"{prog}: {message}")


def _resolve(flags: dict, arg: str, prog: str):
    """What ``arg``, read before ``--``, is: None for a value, else
    ``(option, flag, explicit value or None)`` with ``option`` None for a
    flag the table does not know.  A unique prefix of a long flag names it
    and an ambiguous one is refused; ``-``, a negative number and text with
    a space are values."""
    if arg[:1] != "-" or arg == "-":
        return None
    option = flags.get(arg)
    if option is not None:
        return option, arg, None
    flag, eq, explicit = arg.partition("=")
    if not eq:
        explicit = None
    elif flag in flags:
        return flags[flag], flag, explicit
    if arg[1] == "-":
        matches = [f for f in flags if f.startswith(flag)]
        if len(matches) > 1:
            raise _refusal(prog, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return flags[matches[0]], matches[0], explicit
    # a pattern compiled at import would cost every process about 0.3 ms
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, arg, None


class _Parser:
    """Reads a command line against ``COMMANDS``, left to right.  A refusal
    raises ``FileFormatError`` (one ``error:`` line, exit 2); ``-h`` prints
    help when it is reached and raises ``SystemExit(0)``."""

    def __init__(self, commands: dict):
        self.commands = commands
        # before the subcommand only -h and --help are known
        self.flags = {None: {"-h": _HELP, "--help": _HELP}}
        self.values = {}
        for name, (_, _, options, defaults) in commands.items():
            flags = self.flags[name] = dict(self.flags[None])
            values = self.values[name] = {"command": name}
            for flag, dest, takes_value, choices, _, _ in options:
                flags[flag] = (dest, takes_value, choices)
                values[dest] = None if takes_value else False
            values.update(defaults)

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The namespace of ``argv``; the last of a repeated option wins."""
        argv = sys.argv[1:] if argv is None else list(argv)
        name, prog, flags, values, free = None, "nccw", self.flags[None], None, []
        i, end = 0, len(argv)
        while i < end:
            arg = argv[i]
            i += 1
            if arg == "--" and name is not None:
                free += argv[i:]
                break
            resolved = None if arg == "--" else _resolve(flags, arg, prog)
            if resolved is None:
                if name is not None:
                    free.append(arg)
                    continue
                if arg not in self.commands:
                    raise _refusal(prog, f"invalid command: {arg!r} "
                                         f"(choose from {', '.join(self.commands)})")
                name, prog, flags = arg, f"nccw {arg}", self.flags[arg]
                values = dict(self.values[arg])
                continue
            option, flag, explicit = resolved
            if option is None:
                raise _refusal(prog, f"unrecognized arguments: {arg}")
            dest, takes_value, choices = option
            if not takes_value:
                if explicit is not None:
                    raise _refusal(prog,
                                   f"argument {flag}: ignored explicit argument {explicit!r}")
                if option is _HELP:
                    print(self.help_text(name))
                    raise SystemExit(0)
                values[dest] = True
                continue
            if explicit is None:
                if i == end or argv[i] == "--" or _resolve(flags, argv[i], prog) is not None:
                    raise _refusal(prog, f"argument {flag}: expected one argument")
                explicit = argv[i]
                i += 1
            if choices is not None and explicit not in choices:
                raise _refusal(prog, f"argument {flag}: invalid choice: {explicit!r} "
                                     f"(choose from {', '.join(choices)})")
            values[dest] = explicit
        if name is None:
            raise _refusal(prog, "the following arguments are required: command")
        _, positionals, options, _ = self.commands[name]
        values.update(zip(positionals, free))
        missing = list(positionals[len(free):])
        missing += [flag for flag, dest, _, _, required, _ in options
                    if required and values[dest] is None]
        if missing:
            raise _refusal(prog, f"the following arguments are required: {', '.join(missing)}")
        if len(free) > len(positionals):
            raise _refusal(prog, f"unrecognized arguments: {' '.join(free[len(positionals):])}")
        return SimpleNamespace(**values)

    def help_text(self, name) -> str:
        if name is None:
            rows = [(command, row[0]) for command, row in self.commands.items()]
            usage = f"usage: nccw [-h] {{{','.join(self.commands)}}} ..."
            lines = [usage, "", "Exact K-theory and periodic cyclic homology of NCCW complexes",
                     "", "commands:"]
            tail = ["", "Run nccw COMMAND -h for the options of one command."]
        else:
            summary, positionals, options, _ = self.commands[name]
            words, rows = ["[-h]"], [("-h, --help", "show this help message and exit")]
            for flag, dest, takes_value, choices, required, text in options:
                if takes_value:
                    flag += f" {{{','.join(choices)}}}" if choices else f" {dest.upper()}"
                words.append(flag if required else f"[{flag}]")
                rows.append((flag, text))
            words += positionals
            lines = [f"usage: nccw {name} {' '.join(words)}", "", summary, "", "options:"]
            tail = []
        width = max(len(first) for first, _ in rows) + 2
        lines += [f"  {first:<{width}}{text}".rstrip() for first, text in rows]
        return "\n".join(lines + tail)


def build_parser() -> _Parser:
    return _Parser(COMMANDS)


@functools.cache
def _parser() -> _Parser:
    # built at the first call of ``main`` and kept for the process
    return build_parser()


def _error(message) -> None:
    """One ``error:`` line; what stderr cannot encode is backslash-escaped."""
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    line = f"error: {message}".encode(encoding, "backslashreplace").decode(encoding)
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send the rest to devnull so that the
        # interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _error("stdout was closed before the output was written")
        return EXIT_DOMAIN
    except (FileFormatError, NCCWError) as exc:
        _error(exc)
        return EXIT_PARSE if isinstance(exc, FileFormatError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
