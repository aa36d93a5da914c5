package experiments

import (
	"fmt"
	"sort"
)

// Registry maps exhibit names ("fig3", "table4", ...) to their drivers.
func (e *Env) Registry() map[string]func() error {
	return map[string]func() error{
		"fig2":   e.Fig2,
		"fig3":   e.Fig3,
		"fig4":   e.Fig4,
		"fig5":   e.Fig5,
		"fig6":   e.Fig6,
		"fig7":   e.Fig7,
		"fig8":   e.Fig8,
		"fig9":   e.Fig9,
		"fig10":  e.Fig10,
		"table1": e.Table1,
		"table2": e.Table2,
		"table3": e.Table3,
		"table4": e.Table4,
		"table5": e.Table5,
		// Extra, not part of the paper's exhibit list (excluded from
		// RunAll): quantitative accuracy ablations and the
		// search-strategy head-to-head.
		"ablations":  e.Ablations,
		"strategies": e.Strategies,
	}
}

// Names returns the registry keys in presentation order.
func Names() []string {
	return []string{
		"fig2", "fig3", "fig4", "fig5", "fig6",
		"table1", "table2", "table3",
		"fig7", "table4", "fig8", "table5", "fig9", "fig10",
	}
}

// Run dispatches one exhibit by name.
func (e *Env) Run(name string) error {
	fn, ok := e.Registry()[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return fmt.Errorf("experiments: unknown exhibit %q (known: %v)", name, known)
	}
	return fn()
}

// RunAll executes every exhibit in presentation order, stopping at the
// first failure.
func (e *Env) RunAll() error {
	for _, name := range Names() {
		if err := e.Run(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
