// Fixture: Histogram constructions that bypass the registered-name contract.
#include "common/metrics.h"
#include "common/registry_names.h"

namespace fo2dt {

void UnscrapableHistograms() {
  // Inline string literal: the series exists but the registry never saw it.
  Histogram ad_hoc{"my.private_ms"};
  // Paren form with a registered constant of the wrong category (a module
  // name is not a histogram metric).
  Histogram wrong_category(names::kModLctaEmptiness);
  (void)ad_hoc;
  (void)wrong_category;
}

}  // namespace fo2dt
