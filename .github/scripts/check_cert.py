"""Check one `analyze --certify --cert-out` result.

Usage: python3 check_cert.py REPORT.txt CERT.json

Both certificates must be valid with the gap closed, and each
certificate's bound must equal its side of the report's
`estimated bound: [bcet, wcet] cycles` line. Each side's
`wcet certificate:` / `bcet certificate:` report line must say its duals
came `from lifted`: the root relaxation's row prices, lifted back through
presolve. Every suite ILP's first relaxation is integral, so a `cold`
re-solve means the lift failed.
"""
import json
import re
import sys

report, cert_file = sys.argv[1], sys.argv[2]
with open(report) as f:
    text = f.read()
m = re.search(r"^estimated bound: \[(\d+), (\d+)\] cycles$", text, re.M)
if m is None:
    sys.exit(f"{report}: no estimated bound line")
with open(cert_file) as f:
    certs = json.load(f)
failed = False
for side, bound in (("bcet", m.group(1)), ("wcet", m.group(2))):
    c = certs[side]
    if not (c["valid"] and c["gap_closed"]):
        print(f"{cert_file}: {side} certificate not valid with the gap closed")
        failed = True
    line = re.search(rf"^{side} certificate: .* pivots from ([^;]*);",
                     text, re.M)
    if line is None:
        print(f"{report}: no {side} certificate line")
        failed = True
    elif line.group(1) != "lifted":
        print(f"{report}: {side} certificate came from "
              f"{line.group(1)}, not from the lifted root prices")
        failed = True
    if c["certificate"]["bound"] != bound:
        print(f"{cert_file}: {side} bound {c['certificate']['bound']} "
              f"differs from the report's {bound}")
        failed = True
sys.exit(1 if failed else 0)
