package colstore_test

import (
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// init hands the package's own tests the task package's aggregate
// registry, which colstore cannot import.
func init() {
	for _, name := range task.Aggregates() {
		f, _ := task.Aggregate(name)
		colstore.Registry[name] = f
	}
}
