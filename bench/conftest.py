"""Run the benchmark's tests against the checkout's own meshsdn sources."""
import checkout

checkout.use_source()
