"""Exception types shared across the engine, and the one table of numeric
limits: every float check reads its limit here, and its error names it."""

# NumericOverflowError: a float power or weighted count above this, or NaN.
# It is 1e8 below the largest double, so the product after it stays finite.
MAGNITUDE_LIMIT = 1e300
# NumericResidueError, as for each entry below up to CHECK_TOL: terms whose
# magnitudes sum past this times |Z| leave Z under 4 digits.
CANCEL_LIMIT = 1e12
# A real count's imaginary part per 1 + |count|, and a normalizer's depth
# below 0 that is a fault, not an empty model: far above 1e-16 round-off.
COUNT_IMAG_TOL = 1e-9
# A probability's excursion past [0, 1] that is clamped, not refused: a
# ratio of two counts carries about 1e-16 round-off.
PROB_TOL = 1e-9
# The inverse transform's imaginary part in a bin of masses summing to 1.
# It is dropped from the result, so it need only flag a fault.
GRID_IMAG_TOL = 1e-6
# A bin's negative mass, clamped to 0 and so in the result: round-off only.
GRID_NEG_TOL = 1e-9
# A grid's total away from 1: clamping moves up to 1e3 bins by GRID_NEG_TOL.
GRID_SUM_TOL = 1e-6
# Kept mass of a constrained query at most this times the round-off its
# bins may carry has under 4 right digits.
RESOLVE_LIMIT = 1e4
# The `check` command's relative gap of engine and oracle, both doubles:
# far above their round-off, far below a wrong count.
CHECK_TOL = 1e-9


class MlncountError(Exception):
    """Base class for all engine errors."""


class FormulaSyntaxError(MlncountError):
    """Raised on malformed formula or model-file text.

    ``line`` and ``column`` are 1-based, 0 where unknown; the model-file
    reader sets ``line`` and prefixes it to the message.
    """

    def __init__(self, message, column=0):
        self.line, self.column = 0, column
        super().__init__(f"column {column}: {message}" if column else message)


class VocabularyError(MlncountError):
    """Undeclared predicate, arity mismatch, or duplicate declaration."""


class TooManyVariablesError(MlncountError):
    """A formula uses more distinct variables than the engine fragment allows."""


class BruteForceCapError(MlncountError):
    """The ground-atom count exceeds the exhaustive-enumeration cap."""

    def __init__(self, atom_count, cap):
        self.atom_count = atom_count
        self.cap = cap
        super().__init__(
            f"refusing exhaustive enumeration over {atom_count} ground atoms "
            f"(cap {cap})"
        )


class UnsupportedSentenceError(MlncountError):
    """The polynomial-time engine was given input outside its fragment
    (constants, equality atoms, or >2 variables)."""


class NumericOverflowError(MlncountError):
    """A float passed ``MAGNITUDE_LIMIT`` or the float range."""


class NumericResidueError(MlncountError):
    """A float result crossed a residue limit of the table: a numeric fault."""


class InfeasibleConstraintError(MlncountError):
    """All worlds are excluded: the partition mass under the constraints is zero."""
