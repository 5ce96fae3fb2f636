"""Certified experiments on return-time sets.

Seven largely independent pieces: integer sequence generators and the
alternating splitter (seqcore), circle rotation witnesses and
separation scans (circle), rigid product measures and their Gaussian
overlap models (specmeasure), cutting-and-stacking towers with exact
overlap accounting (rankone), diagonal-plus-shift operators with
certified power norms (linsys), progression block families (bohrgen),
and a config-driven experiment runner (cli) with one handler per
experiment kind (kinds).  Everything user-facing reports through the
certificate schema in ``certificates``.

``import recurlab`` alone stays cheap, ``recurlab.cli`` imports only
``certificates`` and ``kinds``, and ``kinds`` only ``certificates`` and
``seqcore``: a kind's layer modules load when its config validates
(``cli.KIND_MODULES``).  No run loads mpmath (the enclosures are integer
code in ``precision``), and ``rankone``, ``witness``, ``kahane`` and
``bohr`` runs load no numpy.
"""

__version__ = "0.1.0"

__all__ = [
    "bohrgen",
    "certificates",
    "circle",
    "cli",
    "kinds",
    "linsys",
    "precision",
    "rankone",
    "ratintervals",
    "seqcore",
    "specmeasure",
]
