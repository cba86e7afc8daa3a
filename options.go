package eve

import (
	"errors"
	"fmt"

	"repro/internal/space"
	"repro/internal/warehouse"
)

// ErrInvalidOption reports a New option set that cannot form a valid
// system: a negative knob, trade-off parameters that fail validation, or an
// option combination with no coherent meaning. Every error New returns
// wraps it, so callers can match the whole class with
// errors.Is(err, eve.ErrInvalidOption) and read the specifics from the
// message.
var ErrInvalidOption = errors.New("invalid option")

// config collects the options of one New call before they are validated
// and frozen into a System.
type config struct {
	warehouse.Config
	space      *space.Space
	maxDropSet bool
}

// Option configures a System being assembled by New. Options validate
// eagerly where they can; cross-option validation happens once in New.
type Option func(*config) error

// optionErrf builds an ErrInvalidOption-wrapping error.
func optionErrf(format string, args ...interface{}) error {
	return fmt.Errorf("eve: %s: %w", fmt.Sprintf(format, args...), ErrInvalidOption)
}

// WithSpace builds the system over an existing information space (e.g. one
// produced by a scenario generator or persist.Load) instead of a fresh
// empty one. A nil space is an error.
func WithSpace(sp *Space) Option {
	return func(c *config) error {
		if sp == nil {
			return optionErrf("WithSpace(nil)")
		}
		c.space = sp
		return nil
	}
}

// WithTopK bounds the rewriting search: per affected view only the k
// best-scoring rewritings are retained, and the exponential drop-variant
// spectrum is branch-and-bounded against the running K-th best QC score.
// k == 0 (the default) means unbounded — every legal rewriting is ranked;
// negative k is an error.
func WithTopK(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return optionErrf("WithTopK(%d): k must be >= 0", k)
		}
		c.TopK = k
		return nil
	}
}

// WithWorkers bounds the synchronization pipeline's worker pool. n == 0
// (the default) means one worker per available CPU; n == 1 forces the
// sequential behavior of the original implementation; negative n is an
// error.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return optionErrf("WithWorkers(%d): n must be >= 0", n)
		}
		c.Workers = n
		return nil
	}
}

// WithTradeoff replaces the paper's default QC-Model trade-off parameters.
// The parameters are validated at New (weights in range, ρ pairs summing to
// one); an invalid trade-off fails construction instead of silently
// skewing every ranking.
func WithTradeoff(t Tradeoff) Option {
	return func(c *config) error {
		c.Tradeoff = t
		return nil
	}
}

// WithCostModel replaces Table 1's default maintenance-cost statistics.
func WithCostModel(cm CostModel) Option {
	return func(c *config) error {
		c.Cost = cm
		return nil
	}
}

// WithDropVariants opts into the CVS-style drop-variant spectrum (footnote
// 2): for each base rewriting, every nonempty proper subset of its
// remaining dispensable SELECT items additionally dropped. The spectrum is
// exponential in view width; combine with WithTopK to search it lazily.
func WithDropVariants(on bool) Option {
	return func(c *config) error {
		c.DropVariants = on
		return nil
	}
}

// WithMaxDropVariants caps the drop-variant spectrum per base rewriting at
// the n lightest valid variants (default 32). It only means something with
// WithDropVariants(true); setting it while drop-variants stay disabled is
// an invalid combination and fails construction. n must be positive.
func WithMaxDropVariants(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return optionErrf("WithMaxDropVariants(%d): n must be > 0", n)
		}
		c.MaxDropVariants = n
		c.maxDropSet = true
		return nil
	}
}

// WithObserver installs an Observer on the synchronization pipeline. Hooks
// fire from worker goroutines, so the observer must be safe for concurrent
// use (see Observer). A nil observer is an error — omit the option instead.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		if o == nil {
			return optionErrf("WithObserver(nil): omit the option instead")
		}
		c.Observer = o
		return nil
	}
}

// New assembles an EVE system from functional options. Configuration is
// validated and frozen here: an invalid knob or option combination returns
// an error wrapping ErrInvalidOption instead of a system that silently
// misbehaves, and a constructed system is never retuned — build another one
// to rank under other parameters. With no options, New() builds a system
// with the paper's defaults over a fresh information space.
//
//	sys, err := eve.New(
//	    eve.WithSpace(sp),
//	    eve.WithTopK(5),
//	    eve.WithDropVariants(true),
//	    eve.WithObserver(metrics),
//	)
//
// The accessors TopK, Workers, Tradeoff and CostModel read the frozen
// values back.
func New(opts ...Option) (*System, error) {
	c := &config{Config: warehouse.DefaultConfig()}
	for _, opt := range opts {
		if opt == nil {
			return nil, optionErrf("nil Option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if err := c.Tradeoff.Validate(); err != nil {
		return nil, fmt.Errorf("eve: WithTradeoff: %w: %w", err, ErrInvalidOption)
	}
	if c.maxDropSet && !c.DropVariants {
		return nil, optionErrf("WithMaxDropVariants requires WithDropVariants(true)")
	}
	sp := c.space
	if sp == nil {
		sp = space.New()
	}
	return &System{Warehouse: warehouse.New(sp, c.Config)}, nil
}
