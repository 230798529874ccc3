"""Exception hierarchy shared by all singlab modules."""


class SinglabError(Exception):
    """Base class for all errors raised by singlab."""


class VariableMismatch(SinglabError):
    """Operands are defined over different variable lists."""


class BudgetExceeded(SinglabError):
    """A symbolic computation hit its configured step/term budget."""


class ZeroPolynomial(SinglabError):
    """Operation undefined for the zero polynomial."""


class DegreeError(SinglabError):
    """Input has the wrong degree in the relevant variable."""


class NotCritical(SinglabError):
    """The origin is not a critical point of the germ."""


class NotIsolated(SinglabError):
    """The Jacobian ideal is not zero-dimensional (infinite Milnor number)."""


class OrderTooLow(SinglabError):
    """Germ of order <= 2 with nontrivial quadratic part; strip it first."""


class IdentityViolation(SinglabError):
    """An exact symbolic identity failed; indicates an internal bug."""


class DegeneratePoint(SinglabError):
    """Sign query at a point with vanishing hessian determinant."""


class DegenerateParameter(SinglabError):
    """Parameter too close to the bifurcation set; resample."""


class BoxEscape(SinglabError):
    """Elimination data shows real critical points outside the working box."""


class InconsistentDegree(SinglabError):
    """Two accepted parameter samples disagree on the alternating sum."""


class InsufficientAcceptance(SinglabError):
    """Fewer than the required accepted samples within the sampling budget."""


class UnsupportedDimension(SinglabError):
    """Operation not available in this number of variables."""


class PathOutsideBox(SinglabError):
    """A path endpoint lies outside the parameter box."""


class GcdNotOne(SinglabError):
    """Semigroup generators with gcd > 1 define a proper subgroup."""


class NotABranch(SinglabError):
    """Parametrization fails the gcd-descent condition of a branch."""


class NonBinomialElement(SinglabError):
    """Toric elimination produced a non-binomial element; internal bug."""


class RegularizationBudget(SinglabError):
    """Fan regularization exceeded its subdivision budget."""


class TruncationInsufficient(SinglabError):
    """Series precision too low to certify orders."""


class OrderMismatch(SinglabError):
    """Embedding series orders do not match the semigroup generators."""


class InvalidInput(SinglabError, ValueError):
    """An argument is outside the documented domain of the operation."""


class ManifestError(InvalidInput):
    """Manifest failed schema validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
