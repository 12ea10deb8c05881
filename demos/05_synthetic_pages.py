"""Duality checkers on synthetic page data, including over the rationals.

A page can be loaded straight from JSON (dimensions, differentials,
product tables) with no topology behind it.  This exercises the full
Poincare-duality condition, whose natural home is characteristic zero:
a polynomial-algebra page concentrated in even columns.
"""

import json

from swanss import duality_flags, load_synthetic_page

n, window = 2, 12

# E_2 of a circle-style action on a rational duality surface:
# K[u] (deg u = 2) tensor H*(M), rows 0 and 2, even columns only.
page_data = {
    "field_char": 0,
    "n": n,
    "window": window,
    "dims": {},
    "differentials": {"2": {}},
    "products": {},
}
for k in range(0, window + 1, 2):
    page_data["dims"][f"{k},0"] = 1
    page_data["dims"][f"{k},{n}"] = 1
for k in range(0, window + 1, 2):
    for k2 in range(0, window + 1 - k, 2):
        page_data["products"][f"({k},0)x({k2},{n})"] = [[["1"]]]
        page_data["products"][f"({k},{n})x({k2},0)"] = [[["1"]]]
        page_data["products"][f"({k},0)x({k2},0)"] = [[["1"]]]
        page_data["products"][f"({k},{n})x({k2},{n})"] = [[["0"]]]

term = load_synthetic_page(json.dumps(page_data))[2]
flags = duality_flags(term, n)  # one scan decides all three
for variant, name in (("pd", "full"), ("wpd", "weak"), ("sspd", "strong")):
    flag = flags[variant]
    print(f"{name:6s} duality: holds={flag.holds} threshold N={flag.threshold}")

# break one pairing: the threshold moves past the defect
page_data["products"]["(2,0)x(4,2)"] = [[["0"]]]
term = load_synthetic_page(json.dumps(page_data))[2]
flag = duality_flags(term, n)["pd"]
print("\none degenerate pairing at (2,0)x(4,2): holds =", flag.holds,
      "with threshold pushed to N =", flag.threshold)

# break them all: no threshold works and the offenders are listed
for key in list(page_data["products"]):
    if ",0)x(" in key and key.endswith(f",{n})"):
        page_data["products"][key] = [[["0"]]]
term = load_synthetic_page(json.dumps(page_data))[2]
flag = duality_flags(term, n)["pd"]
print("all top pairings degenerate: holds =", flag.holds)
for v in flag.violations[:3]:
    print(f"  offender ({v.k},{v.l}) x ({v.k2},{v.l2}): {v.reason}")
