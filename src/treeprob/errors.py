"""Exception hierarchy for the treeprob package.

Every error raised on bad input derives from TreeProbError, so callers
(including the CLI) can distinguish input problems from genuine bugs.
"""


class TreeProbError(Exception):
    """Base class for all treeprob input and validation errors."""


class CycleDetected(TreeProbError):
    """The edge list contains a cycle or a component unreachable from the root."""


class MultipleRoots(TreeProbError):
    """The edge list does not determine exactly one root node."""


class MultipleParents(TreeProbError):
    """Some node appears as the child of more than one edge."""


class DuplicateSiblingLabel(TreeProbError):
    """Two edges out of the same parent carry the same branch label."""


class NegativeMass(TreeProbError):
    """A probability mass is negative."""


class NonFiniteMass(TreeProbError):
    """A probability mass is NaN or infinite."""


class MassNotNormalized(TreeProbError):
    """Leaf masses (or distribution masses) do not sum to one."""


class LeafMassMismatch(TreeProbError):
    """The leaf-mass map keys do not line up with the childless nodes."""


class FunctionalIncomplete(TreeProbError):
    """A node functional is missing a value for some node of the tree."""


class DegenerateTree(TreeProbError):
    """The tree has no branching nodes, so per-branch quantities are undefined."""


class ShapeMismatch(TreeProbError):
    """Two trees being compared do not share the same labeled shape."""


class AlphabetMismatch(TreeProbError):
    """Two finite distributions are declared over different alphabets."""


class UnknownLabel(TreeProbError):
    """A branch label does not belong to the reference alphabet."""


class ParamsInvalid(TreeProbError):
    """Generator or sweep parameters are out of range."""


class ParseError(TreeProbError):
    """A tree document could not be parsed; the message carries the location."""
