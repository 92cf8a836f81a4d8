"""Command-line front end: exact free-energy curves, certificate suites,
assembled asymptotic envelopes, and lower-bound budgets.

All outputs are plain text (CSV or JSON lines) with fixed column order
and shortest-round-trip float formatting, so identical configurations
produce byte-identical files.  Energies are in units of the exchange
coupling; beta is in inverse such units.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .basis import SpinLattice, SpinMagnitude
from .certificates import write_certificate_ledger
from .checks import CHECKS, DEFAULT_SEED, run_check
from .magnongas import leading_term, lower_envelope, upper_envelope
from .boundlab import compute_budget
from .spectra import ResourceLimitError, free_energy, full_spectrum

UNITS_HEADER = "# units: energies in exchange-coupling units; beta in inverse exchange units"

FREE_ENERGY_COLUMNS = ["beta", "f", "variant", "ell", "two_s"]
SCALED_COLUMNS = ["scaled_f", "ratio_c1"]
ASYMPTOTICS_1D_COLUMNS = [
    "beta_s",
    "two_s",
    "ell_upper",
    "upper",
    "informative_upper",
    "ell_lower",
    "lower",
    "informative_lower",
    "leading",
    "ratio_upper",
    "ratio_lower",
    "width",
    "upper_scale",
    "lower_scale",
]
ASYMPTOTICS_2D_COLUMNS = [
    "beta_s",
    "two_s",
    "ell",
    "envelope",
    "informative",
    "leading",
    "ratio",
    "scale",
]
BUDGET_COLUMNS = [
    "ell",
    "beta",
    "two_s",
    "e0_source",
    "e0",
    "n0",
    "delta",
    "ell0",
    "implied_c",
    "informative",
    "error",
]


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
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


def _write_csv(path, columns, rows, header_comment=UNITS_HEADER):
    with open(path, "w", newline="") as fh:
        fh.write(header_comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _write_rows(path, columns, rows, fmt):
    if fmt == "json":
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps({c: row[c] for c in columns}, sort_keys=True) + "\n")
    else:
        _write_csv(path, columns, rows)


def _emit_plot_script(path, csv_path, xcol, ycols):
    lines = [
        "#!/usr/bin/env python3",
        '"""Generated plotting helper; reads the CSV emitted next to it."""',
        "import csv",
        "import matplotlib.pyplot as plt",
        "",
        f"rows = [r for r in csv.DictReader(open({csv_path!r}) ) if not r[{xcol!r}].startswith('#')]",
        f"xs = [float(r[{xcol!r}]) for r in rows]",
    ]
    for col in ycols:
        lines.append(f"plt.plot(xs, [float(r[{col!r}]) for r in rows], label={col!r})")
    lines += [
        f"plt.xlabel({xcol!r})",
        "plt.legend()",
        "plt.show()",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_free_energy(args):
    spin = SpinMagnitude(args.two_s)
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
    c1_term_cache = {}
    for variant in variants:
        try:
            spectrum = full_spectrum(lattice, spin, variant)
        except ResourceLimitError as exc:
            print(
                f"error: {exc}; reduce --length (dense diagonalization needs "
                "every sector to fit)",
                file=sys.stderr,
            )
            return 1
        for beta in betas:
            f = free_energy(spectrum, beta)
            row = {
                "beta": beta,
                "f": f,
                "variant": variant,
                "ell": sites,
                "two_s": args.two_s,
            }
            if args.scaled:
                scaled = f * beta**1.5 * math.sqrt(spin.s)
                row["scaled_f"] = scaled
                lead = c1_term_cache.setdefault(beta, leading_term(beta, spin.s, 1))
                row["ratio_c1"] = f / lead
            rows.append(row)
    columns = FREE_ENERGY_COLUMNS + (SCALED_COLUMNS if args.scaled else [])
    _write_rows(args.out, columns, rows, args.format)
    if args.plot_script:
        _emit_plot_script(args.plot_script, args.out, "beta", ["f"])
    return 0


def _int_list(text):
    if text is None:
        return None
    if isinstance(text, int):
        return [text]
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_verify(args):
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
    s = SpinMagnitude(args.two_s).s
    grid = parse_beta_grid(args.beta_s)
    rows = []
    if args.dimension == 1:
        for x in grid:
            beta = x / s
            up = upper_envelope(beta, s, 1, scale=args.upper_scale)
            lo = lower_envelope(beta, s, scale=args.lower_scale)
            rows.append(
                {
                    "beta_s": x,
                    "two_s": args.two_s,
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
        columns = ASYMPTOTICS_1D_COLUMNS
    else:
        for x in grid:
            beta = x / s
            up = upper_envelope(beta, s, 2, scale=args.upper_scale)
            rows.append(
                {
                    "beta_s": x,
                    "two_s": args.two_s,
                    "ell": up.ell,
                    "envelope": up.envelope,
                    "informative": up.informative,
                    "leading": up.leading,
                    "ratio": up.ratio,
                    "scale": args.upper_scale,
                }
            )
        columns = ASYMPTOTICS_2D_COLUMNS
    _write_rows(args.out, columns, rows, args.format)
    if args.plot_script:
        ycol = "width" if args.dimension == 1 else "ratio"
        _emit_plot_script(args.plot_script, args.out, "beta_s", [ycol])
    return 0


def cmd_budget(args):
    spin = SpinMagnitude(args.two_s)
    betas = parse_beta_grid(args.beta)
    ells = [int(tok) for tok in args.ell.split(",") if tok.strip()]
    rows = []
    for ell in ells:
        for beta in betas:
            row = {
                "ell": ell,
                "beta": beta,
                "two_s": args.two_s,
                "e0_source": args.e0_source,
                "e0": None,
                "n0": None,
                "delta": None,
                "ell0": None,
                "implied_c": None,
                "informative": None,
                "error": "",
            }
            try:
                budget = compute_budget(ell, beta, spin, e0_source=args.e0_source)
                row.update(
                    {
                        "e0": budget.e0,
                        "n0": budget.n0,
                        "delta": budget.delta,
                        "ell0": budget.ell0,
                        "implied_c": budget.implied_c,
                        "informative": budget.informative,
                    }
                )
            except (ValueError, ResourceLimitError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    _write_rows(args.out, BUDGET_COLUMNS, rows, args.format)
    return 0


def _apply_config(args, parser):
    """Fill unset options from a key=value config file; explicit flags win."""
    if not args.config:
        return
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                parser.error(f"{args.config}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            dest = key.strip().replace("-", "_")
            if not hasattr(args, dest):
                parser.error(f"{args.config}:{lineno}: unknown option {key.strip()!r}")
            if getattr(args, dest) is None:
                setattr(args, dest, value.strip())


_DEFAULTS = {
    "two_s": 1,
    "length": 8,
    "beta": "logspace:1:32:9",
    "beta_s": "1e4,1e6,1e8",
    "format": "csv",
    "grid": "default",
    "seed": DEFAULT_SEED,
    "scaled": False,
    "dimension": 1,
    "upper_scale": 1.0,
    "lower_scale": 1.0,
    "e0_source": "preliminary",
    "ell": "6",
}


def _finalize(args, needed):
    for key in needed:
        if getattr(args, key, None) is None:
            setattr(args, key, _DEFAULTS[key])
    # config-file values and --two-s arrive as strings; verify takes
    # --two-s as a comma list, parsed by cmd_verify
    for key in ("two_s", "length", "extent", "seed", "dimension"):
        value = getattr(args, key, None)
        if isinstance(value, str) and not (key == "two_s" and args.command == "verify"):
            try:
                setattr(args, key, int(value))
            except ValueError:
                raise ValueError(
                    f"--{key.replace('_', '-')} must be an integer, got {value!r}"
                ) from None
    for key in ("upper_scale", "lower_scale"):
        if hasattr(args, key) and isinstance(getattr(args, key), str):
            setattr(args, key, float(getattr(args, key)))
    if hasattr(args, "scaled") and isinstance(args.scaled, str):
        args.scaled = args.scaled.lower() in ("1", "true", "yes")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magnonlab",
        description="Heisenberg-chain free energies, certificates, and magnon-gas envelopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags take precedence")
    common.add_argument("--out", help="output file path", default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)

    p_fe = sub.add_parser("free-energy", parents=[common], help="exact ED free-energy curves")
    p_fe.add_argument("--two-s", default=None)
    p_fe.add_argument("--length", type=int, default=None, help="chain length")
    p_fe.add_argument("--extent", type=int, default=None,
                      help="side of a square grid (replaces --length)")
    p_fe.add_argument("--beta", default=None, help="comma list or logspace:lo:hi:n")
    p_fe.add_argument("--scaled", action="store_const", const=True, default=None,
                      help="add beta^{3/2} S^{1/2} f and its ratio to the continuum constant")
    p_fe.add_argument("--plot-script", default=None)
    p_fe.set_defaults(func=cmd_free_energy,
                      needed=("two_s", "length", "beta", "format", "scaled"))

    p_v = sub.add_parser("verify", parents=[common], help="run a certificate suite")
    p_v.add_argument("--check", required=True, choices=sorted(CHECKS))
    p_v.add_argument("--grid", choices=("default", "quick"), default=None)
    p_v.add_argument("--seed", type=int, default=None)
    p_v.add_argument("--ell", default=None, help="override the box-size axis (comma list)")
    p_v.add_argument("--two-s", default=None, help="override the spin axis (comma list)")
    p_v.add_argument("--n", default=None, help="override the magnon-number axis (comma list)")
    p_v.add_argument("--beta", default=None, help="override the temperature axis (comma list)")
    p_v.set_defaults(func=cmd_verify, needed=("grid", "seed", "format"))

    p_a = sub.add_parser("asymptotics", parents=[common], help="assembled envelope tables")
    p_a.add_argument("--two-s", default=None)
    p_a.add_argument("--beta-s", default=None, help="beta*S grid: comma list or logspace:lo:hi:n")
    p_a.add_argument("--dimension", type=int, choices=(1, 2), default=None)
    p_a.add_argument("--upper-scale", type=float, default=None)
    p_a.add_argument("--lower-scale", type=float, default=None)
    p_a.add_argument("--plot-script", default=None)
    p_a.set_defaults(func=cmd_asymptotics,
                     needed=("two_s", "beta_s", "dimension", "upper_scale",
                             "lower_scale", "format"))

    p_b = sub.add_parser("budget", parents=[common], help="lower-bound budget tables")
    p_b.add_argument("--two-s", default=None)
    p_b.add_argument("--ell", default=None, help="comma list of box sizes")
    p_b.add_argument("--beta", default=None)
    p_b.add_argument("--e0-source", choices=("preliminary", "exact-ed"), default=None)
    p_b.set_defaults(func=cmd_budget, needed=("two_s", "ell", "beta", "e0_source", "format"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
    if getattr(args, "out", None) is None and args.command != "verify":
        parser.error("--out is required for table-producing commands")
    try:
        _finalize(args, args.needed)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
