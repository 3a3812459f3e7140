"""Buster/Fixer: edge destruction and reconnection games on weighted multigraphs.

Buster repeatedly deletes edges from a connected multigraph; Fixer
restores connectivity by spending edges from a priced reserve pool. This
package simulates such series round by round, computes the greedy fix
(a minimum spanning tree of the contracted component multigraph), and
adjudicates whether a given response is optimal under the Fixer-dominance
ordering, by exhaustive game-tree search on desk-scale instances.
"""

from .adjudicator import *
from .cli import *
from .engine import *
from .errors import *
from .graph import *
from .reconnect import *
from .scenario import *
from .transcript import *

__all__ = (
    adjudicator.__all__
    + cli.__all__
    + engine.__all__
    + errors.__all__
    + graph.__all__
    + reconnect.__all__
    + scenario.__all__
    + transcript.__all__
)
