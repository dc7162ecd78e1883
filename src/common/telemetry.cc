#include "common/telemetry.hh"

namespace lbp {

double
SuiteTelemetry::minstrPerSec() const
{
    return wallSeconds > 0.0
               ? static_cast<double>(simInstrs) / wallSeconds / 1e6
               : 0.0;
}

} // namespace lbp
