"""Command-line front end: exact free-energy curves, certificate suites,
assembled asymptotic envelopes, and lower-bound budgets.

All outputs are plain text (CSV or JSON lines) with shortest-round-trip
float formatting, so identical configurations produce byte-identical
files.  A table's columns are the keys of the rows its command builds,
in the order it builds them; JSON lines sort them.  Energies are in
units of the exchange coupling; beta is in inverse such units.

`free-energy`, `verify` and the exact-ED `budget` import the solver
modules (and with them scipy's LAPACK extension) inside their command
functions; `asymptotics` and the preliminary `budget` evaluate closed
forms and never load them.  The exact-ED `budget` builds one spectrum
per box for all its betas, and a box the solver refuses carries that
refusal on every row.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .basis import ResourceLimitError, SpinLattice, SpinMagnitude
from .certificates import CHECK_NAMES, DEFAULT_SEED, write_certificate_ledger
from .magnongas import compute_budget, leading_term, lower_envelope, upper_envelope

UNITS_HEADER = "# units: energies in exchange-coupling units; beta in inverse exchange units"


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def parse_beta_grid(spec_text: str):
    """Parse '1,2,4' or 'logspace:lo:hi:n' into a list of positive, finite floats."""
    if spec_text.startswith("logspace:"):
        try:
            _, lo, hi, count = spec_text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise ValueError(f"bad logspace spec {spec_text!r}") from exc
        if count < 1 or not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError(f"bad logspace spec {spec_text!r}")
        return [float(v) for v in np.geomspace(lo, hi, count)]
    values = [float(tok) for tok in spec_text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty beta grid")
    if not all(0 < v < math.inf for v in values):
        raise ValueError("beta values must be positive and finite")
    return values


def _write_rows(path, rows, fmt):
    """Write `rows` (dicts with the same keys in the same order) as JSON
    lines, or as CSV under the units header, whose columns are the keys
    of the first row in their order."""
    with open(path, "w", newline="") as fh:
        if fmt == "json":
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            fh.write(UNITS_HEADER + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(value) for value in row.values()])


def _require_csv_for_plot_script(args):
    if args.plot_script and args.format != "csv":
        raise ValueError("--plot-script reads the CSV table; it needs --format csv")


def _emit_plot_script(path, csv_path, xcol, ycol, series=None):
    """Write a matplotlib script that plots `ycol` against `xcol` from the
    CSV at `csv_path` (skipping its `#` lines), one line per value of the
    column `series`, or a single line when `series` is None.  The script
    opens the CSV by its path relative to the script's own directory, so
    it runs from any working directory while the two files stay together."""
    label = f"r[{series!r}]" if series else repr(ycol)
    relative = os.path.relpath(os.path.abspath(csv_path), os.path.dirname(os.path.abspath(path)))
    lines = [
        "#!/usr/bin/env python3",
        '"""Generated plotting helper; reads the CSV emitted next to it."""',
        "import csv",
        "import os",
        "import matplotlib.pyplot as plt",
        "",
        f"csv_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), {relative!r})",
        "with open(csv_path) as fh:",
        "    rows = list(csv.DictReader(line for line in fh if not line.startswith('#')))",
        "curves = {}",
        "for r in rows:",
        f"    xs, ys = curves.setdefault({label}, ([], []))",
        f"    xs.append(float(r[{xcol!r}]))",
        f"    ys.append(float(r[{ycol!r}]))",
        "for label, (xs, ys) in curves.items():",
        "    plt.plot(xs, ys, label=label)",
        f"plt.xlabel({xcol!r})",
        f"plt.ylabel({ycol!r})",
        "plt.legend()",
        "plt.show()",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _two_s(args):
    """--two-s of the table commands, one integer (verify takes a list)."""
    try:
        return int(args.two_s)
    except ValueError:
        raise ValueError(f"--two-s must be an integer, got {args.two_s!r}") from None


def cmd_free_energy(args):
    _require_csv_for_plot_script(args)
    from .spectra import free_energy, full_spectrum

    two_s = _two_s(args)
    spin = SpinMagnitude(two_s)
    betas = parse_beta_grid(args.beta)
    if args.extent is not None:
        lattice = SpinLattice.square(args.extent)
        sites = args.extent**2
        variants = ("free",)  # boundary pinning is assembled for chains only
    else:
        lattice = SpinLattice.chain(args.length)
        sites = args.length
        variants = ("free", "dirichlet")
    rows = []
    for variant in variants:
        spectrum = full_spectrum(lattice, spin, variant)
        for beta in betas:
            f = free_energy(spectrum, beta)
            if not math.isfinite(f):
                raise ValueError(f"free energy {f!r} at beta={beta!r} is not finite")
            row = {
                "beta": beta,
                "f": f,
                "variant": variant,
                "ell": sites,
                "two_s": two_s,
            }
            if args.scaled:
                scaled = f * beta**1.5 * math.sqrt(spin.s)
                row["scaled_f"] = scaled
                row["ratio_c1"] = f / leading_term(beta, spin.s, 1)
            rows.append(row)
    _write_rows(args.out, rows, args.format)
    if args.plot_script:
        _emit_plot_script(args.plot_script, args.out, "beta", "f", series="variant")
    return 0


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_verify(args):
    from .checks import run_check

    overrides = {}
    if args.ell:
        overrides["ells"] = _int_list(args.ell)
    if args.two_s:
        overrides["spins"] = _int_list(args.two_s)
    if args.n:
        overrides["ns"] = _int_list(args.n)
    if args.beta:
        overrides["betas"] = parse_beta_grid(args.beta)
    certs = run_check(args.check, grid=args.grid, seed=args.seed, **overrides)
    if not certs:
        raise ValueError(f"the overrides leave no {args.check} certificates to run")
    for cert in certs:
        print(f"{cert.verdict.upper():4s} {cert.name} {cert.params} slack={cert.slack:.3e}")
    if args.out:
        write_certificate_ledger(certs, args.out)
    failed = [c for c in certs if not c.passed]
    print(f"{len(certs) - len(failed)}/{len(certs)} certificates passed")
    return 1 if failed else 0


def cmd_asymptotics(args):
    _require_csv_for_plot_script(args)
    if args.dimension == 2 and args.lower_scale != 1.0:
        raise ValueError("--lower-scale scales the 1d lower envelope; the 2d table has none")
    two_s = _two_s(args)
    s = SpinMagnitude(two_s).s
    grid = parse_beta_grid(args.beta_s)
    rows = []
    for x in grid:
        beta = x / s
        up = upper_envelope(beta, s, args.dimension, scale=args.upper_scale)
        if args.dimension == 2:
            rows.append(
                {
                    "beta_s": x,
                    "two_s": two_s,
                    "ell": up.ell,
                    "envelope": up.envelope,
                    "informative": up.informative,
                    "leading": up.leading,
                    "ratio": up.ratio,
                    "scale": args.upper_scale,
                }
            )
            continue
        lo = lower_envelope(beta, s, scale=args.lower_scale)
        rows.append(
            {
                "beta_s": x,
                "two_s": two_s,
                "ell_upper": up.ell,
                "upper": up.envelope,
                "informative_upper": up.informative,
                "ell_lower": lo.ell,
                "lower": lo.envelope,
                "informative_lower": lo.informative,
                "leading": up.leading,
                "ratio_upper": up.ratio,
                "ratio_lower": lo.ratio,
                "width": up.envelope - lo.envelope,
                "upper_scale": args.upper_scale,
                "lower_scale": args.lower_scale,
            }
        )
    _write_rows(args.out, rows, args.format)
    if args.plot_script:
        ycol = "width" if args.dimension == 1 else "ratio"
        _emit_plot_script(args.plot_script, args.out, "beta_s", ycol)
    return 0


def cmd_budget(args):
    two_s = _two_s(args)
    spin = SpinMagnitude(two_s)
    betas = parse_beta_grid(args.beta)
    ells = _int_list(args.ell)
    if not ells or min(ells) < 1:
        raise ValueError(f"--ell needs box sizes >= 1, got {args.ell!r}")
    # the budget's fields, or None for each when the box admits no budget
    fields = ("e0", "n0", "delta", "ell0", "implied_c", "informative")
    rows = []
    for ell in ells:
        # f_l(beta/2) of the box at every beta, or None for the preliminary bound
        f_halves, refusal = [None] * len(betas), ""
        if args.e0_source == "exact-ed":
            from .spectra import chain_free_energies

            try:
                f_halves = chain_free_energies(ell, spin, [beta / 2 for beta in betas])
            except ResourceLimitError as exc:
                refusal = str(exc)
        for beta, f_half in zip(betas, f_halves):
            values, error = [None] * len(fields), refusal
            if not refusal:
                try:
                    budget = compute_budget(ell, beta, spin.s, f_half)
                    values = [getattr(budget, name) for name in fields]
                except ValueError as exc:
                    error = str(exc)
            row = {"ell": ell, "beta": beta, "two_s": two_s, "e0_source": args.e0_source}
            rows.append({**row, **dict(zip(fields, values)), "error": error})
    _write_rows(args.out, rows, args.format)
    return 0


def _config_flags(path, parser):
    """Read a `key=value` config file as the flags `--key=value`, so
    argparse applies the same type and choice checks to its values.  A
    config file names no other config file."""
    flags = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key == "config":
                parser.error(f"{path}:{lineno}: a config file cannot name another config file")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _require_output_paths(args):
    """Refuse an output path that cannot be written, before any work is
    done and before any other output is written: an empty path, an
    existing directory, a path whose directory does not exist, or a plot
    script that would overwrite the table it plots."""
    script = getattr(args, "plot_script", None)
    for flag, path in (("--out", args.out), ("--plot-script", script)):
        if path is None:
            continue
        if not path:
            raise ValueError(f"{flag} is empty")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory to write {path!r} in")
    # a table command always has --out by now
    if script and os.path.realpath(script) == os.path.realpath(args.out):
        raise ValueError(f"--plot-script {script!r} would overwrite the --out table")


def _boolean(text):
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magnonlab",
        description="Heisenberg-chain free energies, certificates, and magnon-gas envelopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help="key=value config file, read as --key=value flags; "
                             "flags on the command line take precedence")
    common.add_argument("--out", help="output file path", default=None)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_fe = sub.add_parser("free-energy", parents=[common, table], help="exact ED free-energy curves")
    p_fe.add_argument("--two-s", default="1")
    p_fe.add_argument("--length", type=int, default=8, help="chain length")
    p_fe.add_argument("--extent", type=int, default=None,
                      help="side of a square grid (replaces --length)")
    p_fe.add_argument("--beta", default="logspace:1:32:9",
                      help="comma list or logspace:lo:hi:n")
    p_fe.add_argument("--scaled", nargs="?", type=_boolean, const=True, default=False,
                      help="add beta^{3/2} S^{1/2} f and its ratio to the continuum constant")
    p_fe.add_argument("--plot-script", default=None)
    p_fe.set_defaults(func=cmd_free_energy)

    p_v = sub.add_parser("verify", parents=[common], help="run a certificate suite")
    p_v.add_argument("--check", required=True, choices=CHECK_NAMES)
    p_v.add_argument("--grid", choices=("default",), default="default",
                     help="each suite has one grid; the flag keeps `--grid default` valid")
    p_v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_v.add_argument("--ell", default=None, help="override the box-size axis (comma list)")
    p_v.add_argument("--two-s", default=None, help="override the spin axis (comma list)")
    p_v.add_argument("--n", default=None, help="override the magnon-number axis (comma list)")
    p_v.add_argument("--beta", default=None, help="override the temperature axis (comma list)")
    p_v.set_defaults(func=cmd_verify)

    p_a = sub.add_parser("asymptotics", parents=[common, table], help="assembled envelope tables")
    p_a.add_argument("--two-s", default="1")
    p_a.add_argument("--beta-s", default="1e4,1e6,1e8",
                     help="beta*S grid: comma list or logspace:lo:hi:n")
    p_a.add_argument("--dimension", type=int, choices=(1, 2), default=1)
    p_a.add_argument("--upper-scale", type=float, default=1.0)
    p_a.add_argument("--lower-scale", type=float, default=1.0)
    p_a.add_argument("--plot-script", default=None)
    p_a.set_defaults(func=cmd_asymptotics)

    p_b = sub.add_parser("budget", parents=[common, table], help="lower-bound budget tables")
    p_b.add_argument("--two-s", default="1")
    p_b.add_argument("--ell", default="6", help="comma list of box sizes")
    p_b.add_argument("--beta", default="logspace:1:32:9")
    p_b.add_argument("--e0-source", choices=("preliminary", "exact-ed"), default="preliminary")
    p_b.set_defaults(func=cmd_budget)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go before the command line's own, so those win
            args = parser.parse_args(argv[:1] + _config_flags(args.config, parser) + argv[1:])
        if args.out is None and args.command != "verify":
            parser.error("--out is required for table-producing commands")
        _require_output_paths(args)
        return args.func(args)
    except (OSError, ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float power past the largest double
        print(f"error: overflow: {exc.args[-1]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
