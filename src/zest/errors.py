"""Exception types shared across the library."""


class ZestError(Exception):
    """Base class for all library errors."""


class AllZeroMass(ZestError):
    """Every entry of a weight vector is zero; nothing to normalize."""


class NoValidToken(ZestError):
    """The constraint rejects every token with positive prior mass (Z = 0)."""


class DeadPrefix(ZestError):
    """A generation step reached a prefix with no valid continuation."""


class PrefixTooLong(ZestError):
    """Prefix length exceeds the model's maximum string length."""


class EmptyPosterior(ZestError):
    """No string in the model support satisfies the sequence constraint."""


class AllDead(ZestError):
    """Every particle in an ensemble carries zero weight."""
