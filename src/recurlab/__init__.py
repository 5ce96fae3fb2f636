"""Certified experiments on return-time sets.

Seven largely independent pieces: integer sequence generators and the
alternating splitter (seqcore), circle rotation witnesses and
separation scans (circle), rigid product measures and their Gaussian
overlap models (specmeasure), cutting-and-stacking towers with exact
overlap accounting (rankone), diagonal-plus-shift operators with
certified power norms (linsys), progression block families (bohrgen),
and a config-driven experiment runner (cli).  Everything user-facing
reports through the certificate schema in ``certificates``.

``import recurlab`` alone stays cheap, and ``recurlab.cli`` imports only
``certificates`` and ``seqcore``: a kind's layer modules load when its
config validates (``cli.KIND_MODULES``), so a ``rankone`` run loads
neither numpy nor mpmath, and ``witness``, ``kahane`` and ``bohr`` runs
load no numpy.
"""

__version__ = "0.1.0"

__all__ = [
    "bohrgen",
    "certificates",
    "circle",
    "cli",
    "linsys",
    "precision",
    "rankone",
    "ratintervals",
    "seqcore",
    "specmeasure",
]
